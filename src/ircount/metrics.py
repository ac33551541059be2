"""Count and localization metrics, plus the count-decision rules.

Counting quality is exact-match accuracy alongside MSE and MAE; the
localization score is the mean per-image matched-point distance with a
fixed penalty for every unmatched point.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ircount.assignment import _TAU, Point, distance_batches, match_points


@dataclass(frozen=True)
class CountPair:
    """Ground-truth and predicted person count for one image."""

    id: str
    gt: int
    pred: int

    def __post_init__(self) -> None:
        if not (type(self.gt) is int and type(self.pred) is int and self.gt >= 0 and self.pred >= 0):
            raise ValueError(f"counts must be non-negative integers, got gt={self.gt!r} pred={self.pred!r}")


@dataclass(frozen=True)
class MetricsReport:
    """Aggregated counting metrics over a set of images.

    ``per_class`` maps ground-truth count -> (accuracy, occurrences) when
    a class breakdown was requested. Accuracies lie in [0, 1], errors are
    finite and non-negative, and ``n``, counts and occurrences are ints
    (at least 1, 0 and 0); booleans are not numbers here.
    """

    accuracy: float
    mse: float
    mae: float
    n: int
    per_class: dict[int, tuple[float, int]] | None = None

    def __post_init__(self) -> None:
        for name, hi in (("accuracy", 1.0), ("mse", sys.float_info.max), ("mae", sys.float_info.max)):
            _check_value(name, getattr(self, name), 0, hi)
        _check_value("n", self.n, 1, math.inf, int)
        for gt, (acc, occ) in (self.per_class or {}).items():
            _check_value("class", gt, 0, math.inf, int)
            _check_value(f"class {gt} accuracy", acc, 0, 1.0)
            _check_value(f"class {gt} occurrences", occ, 0, math.inf, int)


def _check_value(name: str, value: object, lo: float, hi: float, types: type | tuple = (int, float)) -> None:
    if type(value) is bool or not isinstance(value, types) or not lo <= value <= hi:
        kind = "an integer" if types is int else "a number"
        raise ValueError(f"{name} must be {kind} in [{lo}, {hi:g}], got {value!r}")


@dataclass(frozen=True)
class MaedConfig:
    """Knobs for the localization metric.

    squared: score each matched pair by its squared distance (the default)
    rather than the plain distance.
    denominator: per-image normalizer; "max_card" divides by the larger of
    the two set sizes so penalties average over the set that incurred
    them, "gt_card" divides by the ground-truth size.
    """

    penalty: float = 1.0
    squared: bool = True
    denominator: str = "max_card"

    def __post_init__(self) -> None:
        if not (self.penalty > 0.0 and math.isfinite(self.penalty)):
            raise ValueError(f"penalty must be positive and finite, got {self.penalty}")
        if self.denominator not in ("max_card", "gt_card"):
            raise ValueError(f"denominator must be 'max_card' or 'gt_card', got {self.denominator!r}")


def count_metrics(pairs: Sequence[CountPair], per_class: bool = False) -> MetricsReport:
    """Exact-match accuracy, MSE, and MAE over count pairs.

    Sums accumulate in integer arithmetic, so the report is identical for
    any ordering of the same pairs.
    """
    if not pairs:
        raise ValueError("count_metrics requires at least one pair")
    n = len(pairs)
    correct = sum(1 for p in pairs if p.gt == p.pred)
    se = sum((p.gt - p.pred) ** 2 for p in pairs)
    ae = sum(abs(p.gt - p.pred) for p in pairs)
    breakdown = per_class_accuracy(pairs) if per_class else None
    return MetricsReport(correct / n, se / n, ae / n, n, breakdown)


def per_class_accuracy(pairs: Sequence[CountPair]) -> dict[int, tuple[float, int]]:
    """Accuracy and occurrence count grouped by ground-truth count.

    The occurrence-weighted mean of the group accuracies equals the
    overall accuracy.
    """
    if not pairs:
        raise ValueError("per_class_accuracy requires at least one pair")
    hits: dict[int, int] = {}
    occ: dict[int, int] = {}
    for p in pairs:
        occ[p.gt] = occ.get(p.gt, 0) + 1
        hits[p.gt] = hits.get(p.gt, 0) + (1 if p.gt == p.pred else 0)
    return {gt: (hits[gt] / occ[gt], occ[gt]) for gt in sorted(occ)}


def maed(
    gt_sets: Sequence[Sequence[Point]],
    pred_sets: Sequence[Sequence[Point]],
    cfg: MaedConfig = MaedConfig(),
) -> float:
    """Mean per-image distance between optimally matched point sets.

    Each image contributes the sum of its matched pair distances (squared
    when ``cfg.squared``) plus one penalty per unmatched point, divided by
    the image normalizer. Images empty on both sides contribute zero.
    A penalty so large that the score overflows float64 is a ValueError.
    """
    if len(gt_sets) != len(pred_sets):
        raise ValueError(
            f"gt and prediction lists differ in length: {len(gt_sets)} vs {len(pred_sets)}"
        )
    if not gt_sets:
        raise ValueError("maed requires at least one image")
    total = 0.0
    images = zip(gt_sets, pred_sets)
    for g, p, batch in distance_batches(gt_sets, pred_sets):
        settled = dict(_settled_pairs(g, p, batch))
        for k, (dist, (gt, pred)) in enumerate(zip(batch, images)):
            n, m = dist.shape
            pairs = settled[k] if k in settled else [d for _, _, d in match_points(gt, pred, distances=dist).pairs]
            contrib = 0.0
            for d in pairs:  # in gt order
                contrib += d * d if cfg.squared else d
            contrib += cfg.penalty * abs(n - m)
            denom = max(n, m) if cfg.denominator == "max_card" else n
            total += contrib / max(denom, 1)
    score = total / len(gt_sets)
    if not math.isfinite(score):
        raise ValueError(f"localization score overflows float64 with penalty {cfg.penalty}")
    return score


def _settled_pairs(g: np.ndarray, p: np.ndarray, batch: list[np.ndarray]) -> Iterator[tuple[int, list[float]]]:
    """Position and pair distances, in gt order, of each image in ``batch`` (``g`` and ``p``
    its (x, y) rows) that settles without the solver: each row, a point of its smaller set,
    has a nearest column more than ``_TAU`` nearer than its second nearest and nearest to no
    other row. Another matching moves rows off their nearest at above ``_TAU`` each, so
    ``hungarian`` pairs them so on ``math.hypot`` cells too (``assignment._TAU``).
    """
    n, m = np.array([d.shape for d in batch]).T
    wide = n <= m  # rows are gt points, else pred
    rows, width = np.minimum(n, m), np.maximum(n, m)
    cells = np.concatenate([(d if w else d.T).ravel() for d, w in zip(batch, wide.tolist())])
    length = np.repeat(width, rows)
    start = np.cumsum(length) - length
    image = np.repeat(np.arange(len(batch)), rows)
    nearest = np.minimum.reduceat(cells, start)
    hits = np.flatnonzero(cells == np.repeat(nearest, length))
    first = hits[np.searchsorted(hits, start)]
    cells[first] = np.inf
    col = first - start
    settled = np.ones(len(batch), dtype=bool)
    settled[image[np.minimum.reduceat(cells, start) - nearest <= _TAU]] = False
    taken = np.sort(image * width.max() + col)
    settled[taken[1:][taken[1:] == taken[:-1]] // width.max()] = False
    if not settled.any():
        return
    row = np.arange(len(image)) - np.repeat(np.cumsum(rows) - rows, rows)
    gi = np.where(wide[image], row, col) + np.repeat(np.cumsum(n) - n, rows)
    pi = np.where(wide[image], col, row) + np.repeat(np.cumsum(m) - m, rows)
    keep = np.flatnonzero(settled[image])
    keep = keep[np.lexsort((gi[keep], image[keep]))]  # gt order within each image
    dx, dy = (g[gi[keep], k] - p[pi[keep], k] for k in (0, 1))
    pair_distances = iter(map(math.hypot, dx.tolist(), dy.tolist()))
    for k in np.flatnonzero(settled).tolist():
        yield k, list(itertools.islice(pair_distances, int(rows[k])))


def round_half_away(value: float) -> int:
    """Nearest integer with halves rounded away from zero."""
    base = math.floor(abs(value))
    rounded = base + 1 if abs(value) - base >= 0.5 else base
    return -rounded if value < 0 else rounded


def decide_count_regression(raw: float) -> int:
    """Turn a regression output into a count: round to nearest, clamp at zero.

    Halves round away from zero (2.5 -> 3), matching everyday rounding of
    counts; negative outputs clamp to 0 since counts cannot be negative.
    """
    if not math.isfinite(raw):
        raise ValueError(f"regression output must be finite, got {raw!r}")
    return max(0, round_half_away(raw))


def decide_count_classification(scores: Sequence[float]) -> int:
    """Index of the highest class score; ties resolve to the lowest index."""
    if not len(scores) or not all(map(math.isfinite, scores)):
        raise ValueError(f"classification scores must be non-empty and finite, got {scores!r}")
    return max(range(len(scores)), key=scores.__getitem__)


def report_to_dict(report: MetricsReport, model: str | None = None) -> dict:
    """JSON-friendly view of a report; per-class keys become strings."""
    out: dict = {
        "accuracy": report.accuracy,
        "mse": report.mse,
        "mae": report.mae,
        "n": report.n,
    }
    if model is not None:
        out = {"model": model, **out}
    if report.per_class is not None:
        out["per_class"] = {
            str(gt): {"accuracy": acc, "occurrences": occ}
            for gt, (acc, occ) in report.per_class.items()
        }
    return out


def _render_table(header: Sequence[str], rows: Sequence[Sequence[str]], fmt: str) -> str:
    """Render a header and rows of string cells as a markdown or CSV table."""
    if fmt == "markdown":
        lines = ["| " + " | ".join(header) + " |", "|" + "|".join(["---"] * len(header)) + "|"]
        lines.extend("| " + " | ".join(row) + " |" for row in rows)
    elif fmt == "csv":
        lines = [",".join(row) for row in (header, *rows)]
    else:
        raise ValueError(f"unknown table format {fmt!r}")
    return "\n".join(lines)


def render_count_table(rows: Sequence[tuple[str, MetricsReport]], fmt: str = "markdown") -> str:
    """Render (model, report) rows as a markdown or CSV table."""
    cells = [
        (model, f"{100.0 * r.accuracy:.2f} %", f"{r.mse:.3f}", f"{r.mae:.3f}")
        for model, r in rows
    ]
    return _render_table(("Model", "Acc↑", "MSE↓", "MAE↓"), cells, fmt)


def render_per_class_table(report: MetricsReport, fmt: str = "markdown") -> str:
    """Render the per-class breakdown of a report."""
    if report.per_class is None:
        raise ValueError("report has no per-class breakdown")
    cells = [
        (str(gt), str(occ), f"{100.0 * acc:.2f} %")
        for gt, (acc, occ) in report.per_class.items()
    ]
    return _render_table(("Count", "Occurrences", "Acc↑"), cells, fmt)
