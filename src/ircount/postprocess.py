"""Detector output post-processing and score-threshold tuning.

Detections pass through greedy non-maximum suppression once, then a
confidence sweep finds the score threshold whose per-image box counts
maximize count accuracy against ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

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


_NMS_BLOCK = 512  # rows of pairwise overlaps built at once, from one image or several


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


def _box_rows(boxes: np.ndarray, labelled: bool = False) -> np.ndarray:
    if np.ndim(boxes) != 2 or np.shape(boxes)[1] not in ((5, 6) if labelled else (5,)):
        labels = " or (k, 6) rows with an image label" if labelled else ""
        raise ValueError(f"boxes must be (k, 5) rows of (cx, cy, w, h, score){labels}, got shape {np.shape(boxes)}")
    return np.asarray(boxes, dtype=np.float64)


def confidence_filter(boxes: np.ndarray, conf: float) -> np.ndarray:
    """The ``(k, 5)`` rows scoring at least ``conf``, in their order."""
    if not 0.0 <= conf <= 1.0:
        raise ValueError(f"confidence threshold must be in [0, 1], got {conf}")
    boxes = _box_rows(boxes)
    return boxes[boxes[:, 4] >= conf]


def _tiles(sizes: np.ndarray) -> Iterator[tuple[int, int, int, int, int]]:
    """(first box, image size, images, first row, stop row) of each tile of
    overlaps, for boxes visited image by image in ascending size: images of
    one size with at most ``_NMS_BLOCK`` rows in all, or rows of one image."""
    start = 0
    for size, count in zip(*(v.tolist() for v in np.unique(sizes, return_counts=True))):
        per = max(1, _NMS_BLOCK // size)
        for image in range(0, count, per):
            for row in range(0, size, _NMS_BLOCK):
                yield start + image * size, size, min(per, count - image), row, min(row + _NMS_BLOCK, size)
        start += size * count


def nms(boxes: np.ndarray, iou_thresh: float) -> np.ndarray:
    """Greedy non-maximum suppression over ``(k, 5)`` rows of
    (cx, cy, w, h, score), such as ``ImageRecord.boxes``, or over ``(k, 6)``
    rows whose last column labels each box's image.

    Each image is suppressed on its own. Its boxes are visited by
    descending score (ties by original index), and a box is kept unless it
    overlaps an already-kept box with IoU strictly above the threshold.
    The kept rows, labels included, come back in their original order.

    Overlaps are computed with the same corner and union arithmetic as
    :func:`iou`, so every IoU is bit-identical to it. At most
    ``_NMS_BLOCK`` rows of pairwise overlaps exist at a time, from several
    images of one size or from one image.
    """
    if not 0.0 <= iou_thresh <= 1.0:
        raise ValueError(f"IoU threshold must be in [0, 1], got {iou_thresh}")
    arr = _box_rows(boxes, labelled=True)
    labels = arr[:, 5] if arr.shape[1] == 6 else np.zeros(len(arr))
    _, image, sizes = np.unique(labels, return_inverse=True, return_counts=True)
    # Images of one size are visited one after another, so n of them are
    # an (n, size) tile of boxes.
    order = np.lexsort((-arr[:, 4], image, sizes[image]))
    # Corners as contiguous rows x and y, boxes in visiting order, and
    # areas, with iou()'s arithmetic. lo holds the centres until half is
    # taken off: building them in place keeps the peak memory of a large
    # batch down, and only lo, hi and area stay alive below.
    lo, half = np.take(arr.T[:2], order, axis=1), np.take(arr.T[2:4], order, axis=1)
    half /= 2
    hi = lo + half
    lo -= half
    area = np.multiply(*(hi - lo))
    del image, half
    removed = np.zeros(len(arr), dtype=bool)
    for start, size, n, r0, r1 in _tiles(sizes):
        # Only pairs whose x extents overlap can score: any other pair has
        # inter 0 and so IoU 0, which is never above a threshold in [0, 1],
        # just as iou() says.
        x_lo, x_hi = (v[0, start:start + n * size].reshape(n, size) for v in (lo, hi))
        meet = x_hi[:, r0:r1, None] > x_lo[:, None, :]
        meet &= x_lo[:, r0:r1, None] < x_hi[:, None, :]
        meet &= np.arange(size) > np.arange(r0, r1)[:, None]
        # Cell (image, row, col) of the tile stands for the boxes visited
        # at start + image * size + r0 + row and start + image * size + col.
        i, j = np.divmod(np.flatnonzero(meet), size)
        j += start + i // (r1 - r0) * size
        i += start + r0
        inter = np.ones(len(i))
        for c in (0, 1):  # one coordinate at a time keeps the gathers small
            ext = np.minimum(hi[c, i], hi[c, j])
            ext -= np.maximum(lo[c, i], lo[c, j])
            inter *= np.maximum(ext, 0.0, out=ext)
        union = area[i] + area[j]
        union -= inter
        with np.errstate(divide="ignore", invalid="ignore"):
            over = np.divide(inter, union, out=union) > iou_thresh
        # Greedy pass in rounds over the overlaps (i visited before j) of
        # undecided boxes: a box with no such earlier neighbour is kept, and
        # every box it overlaps is removed. Earlier rows of a large image
        # may have removed some of these boxes already.
        over &= ~removed[i]
        i, j = i[over], j[over]
        while len(i):
            blocked = np.zeros(len(arr), dtype=bool)
            blocked[j] = True
            removed[j[~blocked[i]]] = True
            live = blocked[i] & ~removed[i]
            i, j = i[live], j[live]
    return arr[np.sort(order[~removed])]


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

    One NMS call at a fixed IoU threshold suppresses every record's boxes,
    each record its own image; the sweep then counts surviving boxes
    scoring at or above each grid value. The returned best threshold
    breaks ties toward the smallest grid value. The grid must be non-empty
    and lie in [0, 1]; any order will do.
    """
    grid = sorted(float(t) for t in grid)

    # A record scores at threshold t exactly when lo < t <= hi: hi is its
    # target-th highest kept score and lo the next one down (+inf and -inf
    # when there is no such score). Each hit is a run of grid indices.
    pairs = aligned_records(gt, pred)
    if not pairs:
        raise ValueError("tune_threshold requires at least one record")
    missing = next((gt_rec.id for gt_rec, pred_rec in pairs if pred_rec.boxes is None), None)
    if missing is not None:
        raise ValueError(f"prediction record {missing!r} carries no boxes tier")
    boxes = [pred_rec.boxes for _, pred_rec in pairs]
    labels = np.repeat(np.arange(len(pairs), dtype=np.float64), [len(rows) for rows in boxes])
    kept = nms(np.column_stack((np.concatenate(boxes), labels)), nms_iou)
    # Each record's kept scores, descending, are one run of ``scores``; the
    # -inf after them keeps every gathered index in range.
    order = np.lexsort((-kept[:, 4], kept[:, 5]))
    scores = np.append(kept[order, 4], -np.inf)
    counts = np.bincount(kept[:, 5].astype(np.intp), minlength=len(pairs))
    targets = np.array([annotation_to_count(gt_rec).count for gt_rec, _ in pairs])
    reachable = targets <= counts
    target, start, count = targets[reachable], (np.cumsum(counts) - counts)[reachable], counts[reachable]
    his = np.where(target > 0, scores[start + target - 1], np.inf)
    los = np.where(target < count, scores[start + target], -np.inf)
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
