"""Detector output post-processing and score-threshold tuning.

Detections pass through greedy non-maximum suppression once, then a
confidence sweep finds the score threshold whose per-image box counts
maximize count accuracy against ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from ircount.corpus import BoundingBox, Dataset, aligned_records, annotation_to_count
from ircount.metrics import CountPair


def check_curve(axis: str, xs: Sequence[float], accuracies: Sequence[float], open_low: bool = False) -> None:
    """Check an accuracy curve: ``xs`` (named ``axis`` in messages) strictly
    ascending within [0, 1], or (0, 1] when ``open_low``, with one accuracy
    in [0, 1] per point. Every value must be a number, not a boolean."""
    if len(xs) != len(accuracies) or not xs:
        raise ValueError(f"{axis} and accuracies must be equal-length and non-empty")
    if bool in map(type, xs) or bool in map(type, accuracies):
        raise ValueError(f"{axis} and accuracies must be numbers, not booleans")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError(f"{axis} must be strictly ascending")
    if any(not (0.0 < x <= 1.0 if open_low else 0.0 <= x <= 1.0) for x in xs):
        raise ValueError(f"{axis} must lie in {'(' if open_low else '['}0, 1]")
    if any(not 0.0 <= a <= 1.0 for a in accuracies):
        raise ValueError("accuracies must lie in [0, 1]")


def best_point(xs: Sequence[float], accuracies: Sequence[float]) -> tuple[float, float]:
    """The point of a checked curve with the highest accuracy; ties go to
    the smallest x."""
    i = accuracies.index(max(accuracies))
    return xs[i], accuracies[i]


@dataclass(frozen=True)
class ThresholdCurve:
    """Accuracy as a function of confidence threshold.

    ``best_threshold`` is the smallest threshold attaining the maximum
    accuracy, ``best_accuracy``.
    """

    thresholds: tuple[float, ...]
    accuracies: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "thresholds", tuple(self.thresholds))
        object.__setattr__(self, "accuracies", tuple(self.accuracies))
        check_curve("thresholds", self.thresholds, self.accuracies)

    @cached_property
    def _best(self) -> tuple[float, float]:
        return best_point(self.thresholds, self.accuracies)

    @property
    def best_threshold(self) -> float:
        return self._best[0]

    @property
    def best_accuracy(self) -> float:
        return self._best[1]


_NMS_BLOCK = 512  # rows of the pairwise overlap matrix built at once


def _corners(b: BoundingBox) -> tuple[float, float, float, float]:
    return (b.cx - b.w / 2, b.cy - b.h / 2, b.cx + b.w / 2, b.cy + b.h / 2)


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two center-size boxes; disjoint boxes give 0.

    All areas derive from the same corner coordinates so identical boxes
    score exactly 1.0.
    """
    ax1, ay1, ax2, ay2 = _corners(a)
    bx1, by1, bx2, by2 = _corners(b)
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union


def _box_rows(boxes: np.ndarray) -> np.ndarray:
    if np.ndim(boxes) != 2 or np.shape(boxes)[1] != 5:
        raise ValueError(f"boxes must be (k, 5) rows of (cx, cy, w, h, score), got shape {np.shape(boxes)}")
    return np.asarray(boxes, dtype=np.float64)


def confidence_filter(boxes: np.ndarray, conf: float) -> np.ndarray:
    """The ``(k, 5)`` rows scoring at least ``conf``, in their order."""
    if not 0.0 <= conf <= 1.0:
        raise ValueError(f"confidence threshold must be in [0, 1], got {conf}")
    boxes = _box_rows(boxes)
    return boxes[boxes[:, 4] >= conf]


def nms(boxes: np.ndarray, iou_thresh: float) -> np.ndarray:
    """Greedy non-maximum suppression over ``(k, 5)`` rows of
    (cx, cy, w, h, score), such as ``ImageRecord.boxes``.

    Boxes are visited by descending score (ties by original index); a box
    is kept unless it overlaps an already-kept box with IoU strictly above
    the threshold. The kept rows come back in their original order.

    Overlaps are computed on arrays with the same corner and union
    arithmetic as :func:`iou`, so every IoU is bit-identical to it. At
    most ``_NMS_BLOCK`` rows of the pairwise matrix exist at a time.
    """
    if not 0.0 <= iou_thresh <= 1.0:
        raise ValueError(f"IoU threshold must be in [0, 1], got {iou_thresh}")
    arr = _box_rows(boxes)
    order = np.argsort(-arr[:, 4], kind="stable")
    # cx, cy, w, h as contiguous rows, boxes in visiting order: a block of
    # boxes is then a slice, and corners and areas use iou()'s arithmetic.
    cols = np.ascontiguousarray(arr[order, :4].T)
    half = cols[2:] / 2
    lo, hi = cols[:2] - half, cols[:2] + half
    side = hi - lo
    area = side[0] * side[1]
    removed = np.zeros(len(arr), dtype=bool)
    for start in range(0, len(arr), _NMS_BLOCK):
        rows = slice(start, start + _NMS_BLOCK)
        # Clamping a non-positive extent to 0 gives inter 0 and so IoU 0,
        # which is never above a threshold in [0, 1], just as iou() says.
        ext = np.minimum(hi[:, rows, None], hi[:, None, :])
        ext -= np.maximum(lo[:, rows, None], lo[:, None, :])
        np.maximum(ext, 0.0, out=ext)
        inter = ext[0] * ext[1]
        union = area[rows, None] + area
        union -= inter
        with np.errstate(divide="ignore", invalid="ignore"):
            over = np.divide(inter, union, out=union) > iou_thresh
        np.fill_diagonal(over[:, start:], False)
        # A box that overlaps no other is kept and removes nothing, so only
        # rows with an overlap take part in the greedy pass.
        for r in np.flatnonzero(over.any(axis=1)).tolist():
            if not removed[start + r]:
                removed |= over[r]
    kept = np.sort(order[~removed])
    return arr[kept]


def default_grid(step: float = 0.001) -> list[float]:
    """Ascending threshold grid over [0, 1] with the given step.

    The step must divide 1 into at most 10**6 steps. With
    ``count = 1 / step`` steps, the values are ``i / count``, so each is
    the closest float to its decimal and the last is exactly 1.0.
    """
    if not 0.0 < step <= 1.0:
        raise ValueError(f"grid step must be in (0, 1], got {step}")
    if step < 1e-6:  # 10**6 steps make a list of about 32 MB; the paper's step is 0.001
        raise ValueError(f"grid step {step} gives more than 1000000 steps")
    count = round(1.0 / step)
    if not math.isclose(count * step, 1.0, rel_tol=1e-9, abs_tol=0.0):
        raise ValueError(f"grid step must divide 1, got {step}")
    return [i / count for i in range(count + 1)]


def tune_threshold(
    pred: Dataset,
    gt: Dataset,
    grid: Sequence[float],
    nms_iou: float = 0.7,
) -> ThresholdCurve:
    """Sweep confidence thresholds and report count accuracy at each.

    NMS runs once per record at a fixed IoU threshold; the sweep then
    counts surviving boxes scoring at or above each grid value. The
    returned best threshold breaks ties toward the smallest grid value.
    The grid must be non-empty and lie in [0, 1]; any order will do.
    """
    grid = sorted(float(t) for t in grid)

    # A record scores at threshold t exactly when lo < t <= hi: hi is its
    # target-th highest kept score and lo the next one down (+inf and -inf
    # when there is no such score). Each hit is a run of grid indices.
    pairs = aligned_records(gt, pred)
    if not pairs:
        raise ValueError("tune_threshold requires at least one record")
    los: list[float] = []
    his: list[float] = []
    for gt_rec, pred_rec in pairs:
        if pred_rec.boxes is None:
            raise ValueError(f"prediction record {gt_rec.id!r} carries no boxes tier")
        target = annotation_to_count(gt_rec).count
        scores = sorted(nms(pred_rec.boxes, nms_iou)[:, 4].tolist(), reverse=True)
        if target > len(scores):
            continue
        his.append(scores[target - 1] if target > 0 else np.inf)
        los.append(scores[target] if target < len(scores) else -np.inf)
    grid_arr = np.asarray(grid, dtype=np.float64)
    first = np.searchsorted(grid_arr, los, side="right")
    stop = np.searchsorted(grid_arr, his, side="right")
    size = len(grid) + 1
    hits = np.cumsum(np.bincount(first, minlength=size) - np.bincount(stop, minlength=size))[:-1]
    accuracies = (hits / len(pairs)).tolist()
    return ThresholdCurve(grid, accuracies)


def apply_detector_postprocessing(boxes: np.ndarray, conf: float, iou_thresh: float) -> np.ndarray:
    """NMS followed by confidence filtering, the deployment-time pipeline,
    on ``(k, 5)`` box rows."""
    return confidence_filter(nms(boxes, iou_thresh), conf)


def count_pairs_from_datasets(gt: Dataset, pred: Dataset) -> list[CountPair]:
    """Alignment helper: derive per-image count pairs from two manifests."""
    return [
        CountPair(g.id, annotation_to_count(g).count, annotation_to_count(p).count)
        for g, p in aligned_records(gt, pred)
    ]
