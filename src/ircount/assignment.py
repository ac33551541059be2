"""Optimal point matching between ground-truth and predicted locations.

Every point of the smaller set is paired with a distinct point of the larger
one at the least total distance. Unmatched points are only counted here;
what they cost is up to the scorer (``matching_objective``, ``metrics.maed``).
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import sys
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

Point = Sequence[float]  # an (x, y, ...) row; a set of them may also be a (k, >= 2) array


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """Dense matrix of finite, non-negative costs.

    ``costs`` may be given flat in row-major order or shaped ``(rows, cols)``;
    it is stored as a read-only ``(rows, cols)`` float64 array.
    """

    rows: int
    cols: int
    costs: np.ndarray

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        costs = np.array(self.costs, dtype=np.float64)
        if costs.size != self.rows * self.cols:
            raise ValueError(f"expected {self.rows * self.cols} costs, got {costs.size}")
        if costs.ndim > 1 and costs.shape != (self.rows, self.cols):
            raise ValueError(f"costs have shape {costs.shape}, expected {(self.rows, self.cols)}")
        costs = costs.reshape(self.rows, self.cols)
        ok = np.isfinite(costs) & (costs >= 0.0)
        if not ok.all():
            bad = float(costs.flat[np.argmin(ok)])
            raise ValueError(f"costs must be finite and >= 0, got {bad!r}")
        costs.flags.writeable = False
        object.__setattr__(self, "costs", costs)


@dataclass(frozen=True)
class MatchResult:
    """Pairing between two point sets.

    ``pairs`` holds (gt_index, pred_index, distance) sorted by gt index;
    every index appears at most once. Unmatched counts cover whatever the
    pairing could not absorb.
    """

    pairs: tuple[tuple[int, int, float], ...]
    unmatched_gt: int
    unmatched_pred: int


def hungarian(costs: CostMatrix) -> list[tuple[int, int]]:
    """Minimum-cost perfect assignment on a square matrix.

    Jonker–Volgenant: each column's dual starts at its minimum, and
    ``column_reduction`` gives columns to rows holding them. Every row left
    free is then assigned by a Dijkstra search for a shortest augmenting
    path on the reduced costs, one row at a time in ascending order.

    Ties resolve deterministically: a column's minimum is its first
    minimal row, and the search settles the lowest-index column among
    equally distant ones. Returns (row, col) pairs sorted by row.
    """
    if costs.rows != costs.cols:
        raise ValueError(f"square matrix required, got {costs.rows} x {costs.cols}")
    n = costs.rows
    if n == 0:
        return []
    c = costs.costs
    v = c.min(axis=0)
    col4row = column_reduction(c[None])[0].tolist()
    row4col = [-1] * n
    for i, j in enumerate(col4row):
        if j >= 0:
            row4col[j] = i
    # Row duals stay implicit: zero while free, c[i, j] - v[j] once matched to column j.
    for row in [i for i in range(n) if col4row[i] < 0]:
        _augment(c, v, col4row, row4col, row)
    return list(enumerate(col4row))


def column_reduction(costs: np.ndarray) -> np.ndarray:
    """Each row's column, or -1, after column reduction of a ``(k, n, n)`` stack: from the last
    column to the first, each goes to its first minimal row if free; a matrix with no -1 is solved."""
    col4row = np.full(costs.shape[:2], -1)
    np.maximum.at(col4row, (np.arange(len(costs))[:, None], costs.argmin(axis=1)), np.arange(costs.shape[2]))
    return col4row


def _augment(c: np.ndarray, v: np.ndarray, col4row: list[int], row4col: list[int], row: int) -> None:
    """Assign free ``row`` along a shortest augmenting path (Dijkstra on the
    reduced costs), then lower the settled columns' duals so that the
    reduced costs stay non-negative and every assigned pair stays tight."""
    n = len(col4row)
    shortest = np.full(n, math.inf)  # path length to each unsettled column
    path = np.zeros(n, dtype=np.intp)  # row from which each column was reached
    settled, lengths, duals = [], [], []
    i, offset = row, 0.0  # path length to row i minus row i's dual
    while True:
        reduced = c[i] - v
        reduced += offset
        better = reduced < shortest
        path[better] = i
        np.minimum(shortest, reduced, out=shortest)
        j = int(shortest.argmin())
        dist = float(shortest[j])
        if dist == math.inf:
            raise ValueError("assignment costs overflow float64")
        settled.append(j)
        lengths.append(dist)
        duals.append(float(v[j]))
        if row4col[j] < 0:
            break
        i = row4col[j]
        offset = dist - (c[i, j] - v[j])
        # A settled column leaves the search: +inf keeps argmin off it and
        # v = -inf makes every later reduced cost to it +inf.
        shortest[j] = math.inf
        v[j] = -math.inf
    v[settled] = np.array(duals) - (dist - np.array(lengths))
    while True:
        i = int(path[j])
        row4col[j] = i
        col4row[i], j = j, col4row[i]
        if i == row:
            break


def _xy(points: Sequence[Point] | np.ndarray) -> np.ndarray:
    """The (x, y) columns of a set of rows; an empty sequence is an empty set."""
    try:
        rows = np.asarray(points, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"points must be (x, y, ...) rows of numbers: {exc}") from None
    if rows.shape == (0,):
        return rows.reshape(0, 2)
    if rows.ndim != 2 or rows.shape[1] < 2:
        raise ValueError(f"points must be a (k, >= 2) array of (x, y, ...) rows, got shape {rows.shape}")
    return rows[:, :2]


def _in_unit(xy: np.ndarray) -> bool:
    return xy.min(initial=0.0) >= 0.0 and xy.max(initial=0.0) <= 1.0


def _check_unit(xy: np.ndarray) -> None:
    if not _in_unit(xy):
        bad = ~((xy >= 0.0) & (xy <= 1.0)).all(axis=1)
        x, y = xy[np.argmax(bad)].tolist()
        raise ValueError(f"point coordinates must be normalized to [0, 1], got ({x}, {y})")


_BATCH_CELLS = 1 << 14  # distances computed together; a batch's temporaries stay in cache
_VELTKAMP = 134217729.0  # 2**27 + 1: x * this splits x into two 26-bit halves


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t = x * _VELTKAMP
    hi = t - (t - x)
    return hi, x - hi


def _add_exact(csum: np.ndarray, term: np.ndarray, frac: np.ndarray) -> np.ndarray:
    """``csum + term``, adding its rounding error ``(csum - total) + term``
    to ``frac`` (exact while ``|csum| >= |term|``); overwrites ``csum``."""
    total = csum + term
    np.subtract(csum, total, out=csum)
    csum += term
    frac += csum
    return total


def _hypot_port(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """``math.hypot`` per element, bit for bit on CPython 3.10 and 3.11.

    Repeats the interpreter's two-argument ``vector_norm`` operation for
    operation: scale by a power of two, square each part exactly with
    Veltkamp/Dekker splits, accumulate in a double-length sum, take one
    square root and apply one differential correction (Borges, arXiv
    1904.09481). Cells whose larger part is below 2**-1022, which the
    interpreter rescales separately, go to ``math.hypot`` itself.
    """
    ax, ay = np.abs(dx), np.abs(dy)
    top = np.maximum(ax, ay)
    csum = np.ones_like(top)
    frac1, frac2, frac3 = np.zeros_like(top), np.zeros_like(top), np.zeros_like(top)
    with np.errstate(all="ignore"):  # only the cells left to math.hypot overflow or divide by zero
        scale = np.ldexp(1.0, -np.frexp(top)[1])
        for x in (ax * scale, ay * scale):
            hi, lo = _split(x)
            csum = _add_exact(csum, hi * hi, frac1)
            csum = _add_exact(csum, 2.0 * hi * lo, frac2)
            frac3 += lo * lo
        h = np.sqrt(csum - 1.0 + (frac1 + frac2 + frac3))
        hi, lo = _split(h)
        csum = _add_exact(csum, -hi * hi, frac1)
        csum = _add_exact(csum, -2.0 * hi * lo, frac2)
        csum = _add_exact(csum, -lo * lo, frac3)
        out = (h + (csum - 1.0 + (frac1 + frac2 + frac3)) / (2.0 * h)) / scale
    tiny = np.flatnonzero(top < sys.float_info.min)
    out[tiny] = list(map(math.hypot, dx[tiny].tolist(), dy[tiny].tolist()))
    return out


@functools.cache
def _port_is_exact() -> bool:
    """Whether ``_hypot_port`` reproduces this interpreter's ``math.hypot``
    on a fixed probe set: uniform, near-equal, tiny-against-large and
    3-decimal-grid pairs, plus every pair of a few edge values."""
    rng = random.Random(1904)
    pairs = []
    for _ in range(512):
        a, b, eps = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-1e-6, 1e-6)
        grid = (rng.randint(-1000, 1000) / 1000, rng.randint(-1000, 1000) / 1000)
        pairs += [(a, b), (a, a * (1.0 + eps)), (eps, b), grid]
    # CPython 3.12's fused Dekker product rounds (0.15, 0.36) differently.
    edges = (0.0, -0.0, 1.0, 1e-300, 1e-308, 2.0**-1022, 5e-324, 1.0 - 2.0**-53, 0.15, 0.36)
    pairs += itertools.product(edges, edges)
    want = np.array([math.hypot(a, b) for a, b in pairs])
    dx, dy = np.array(pairs).T
    return bool((_hypot_port(dx, dy).view(np.uint64) == want.view(np.uint64)).all())


def _hypot(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    if _port_is_exact():
        return _hypot_port(dx, dy)
    return np.fromiter(map(math.hypot, dx.tolist(), dy.tolist()), dtype=np.float64, count=dx.size)


def distance_matrices(
    gt_sets: Sequence[Sequence[Point]], pred_sets: Sequence[Sequence[Point]]
) -> Iterator[np.ndarray]:
    """Each image's ``(len(gt), len(pred))`` Euclidean distances, in order.

    Every entry is ``math.hypot(gx - px, gy - py)`` bit for bit
    (``np.hypot`` rounds differently). Runs of consecutive images are
    computed together, about ``_BATCH_CELLS`` cells at a time, and their
    points are checked together. A bad point raises the error that
    ``match_points`` on its image alone raises: predictions are checked
    before ground truth, and the first bad image in order is named.
    """
    return itertools.chain.from_iterable(distance_batches(gt_sets, pred_sets))


def distance_batches(
    gt_sets: Sequence[Sequence[Point]], pred_sets: Sequence[Sequence[Point]]
) -> Iterator[list[np.ndarray]]:
    """``distance_matrices``, one list per run of images computed together."""
    xy: list[np.ndarray] = []  # the batch's (x, y) columns, pred and gt alternating
    cells = 0
    for gt, pred in zip(gt_sets, pred_sets):
        image: list[np.ndarray] = []
        try:
            for points in (pred, gt):
                image.append(_xy(points))
        except ValueError:
            for rows in xy + image:  # a bad point in an earlier set is reported first
                _check_unit(rows)
            raise
        size = len(image[0]) * len(image[1])
        if xy and cells + size > _BATCH_CELLS:
            yield _batch_distances(xy)
            xy, cells = [], 0
        xy += image
        cells += size
    if xy:
        yield _batch_distances(xy)


def _batch_distances(xy: list[np.ndarray]) -> list[np.ndarray]:
    """Distance matrices of a batch of (x, y) columns, pred and gt alternating."""
    p, g = np.concatenate(xy[0::2]), np.concatenate(xy[1::2])
    if not (_in_unit(p) and _in_unit(g)):
        for rows in xy:
            _check_unit(rows)
    m = np.array([len(rows) for rows in xy[0::2]])
    n = np.array([len(rows) for rows in xy[1::2]])
    # Cells run row-major within each image: every gt row meets the m
    # predictions of its own image, found at this offset from the cell index.
    m_row = np.repeat(m, n)
    shift = np.repeat(np.cumsum(m) - m, n) - (np.cumsum(m_row) - m_row)
    pi = np.arange(m_row.sum()) + np.repeat(shift, m_row)
    dist = _hypot(np.repeat(g[:, 0], m_row) - p[:, 0].take(pi), np.repeat(g[:, 1], m_row) - p[:, 1].take(pi))
    ends = np.cumsum(n * m).tolist()
    return [dist[end - r * c : end].reshape(r, c) for end, r, c in zip(ends, n.tolist(), m.tolist())]


def matching_objective(result: MatchResult, penalty: float) -> float:
    """Total cost of a matching: pair distances plus one penalty per unmatched point.

    Distances accumulate left to right in pair order (ascending gt index),
    so equal matchings from different solvers sum bit-identically.
    """
    total = 0.0
    for _, _, d in result.pairs:
        total += d
    total += penalty * (result.unmatched_gt + result.unmatched_pred)
    return total


def match_points(
    gt: Sequence[Point], pred: Sequence[Point], *, distances: np.ndarray | None = None
) -> MatchResult:
    """Pair every point of the smaller set with a distinct point of the
    larger one at the least total Euclidean distance.

    Each set is a ``(k, >= 2)`` array of (x, y, ...) rows, such as
    ``ImageRecord.points``, or a sequence of such rows; a set of any other
    shape is a ValueError. ``distances`` is the sets' ``(len(gt),
    len(pred))`` matrix when the caller already has it from
    ``distance_matrices``; by default it is computed here, the same way.

    The distance matrix is padded to a max(n, m) square with its largest
    entry and solved exactly. Every perfect assignment of that square uses
    exactly |n - m| padding entries, so the padding value never changes
    which pairs win. Assignments to padding become unmatched counts.
    """
    if distances is None:
        dist = next(distance_matrices([gt], [pred]))
        n, m = dist.shape
    else:
        try:
            n, m = len(gt), len(pred)
        except TypeError:  # a 0-d array or a scalar has no length: _xy words its shape error
            n, m = len(_xy(gt)), len(_xy(pred))
        if np.shape(distances) != (n, m):
            raise ValueError(f"distances must have shape {(n, m)}, got {np.shape(distances)}")
        dist = distances
    size = max(n, m)
    grid = np.full((size, size), dist.max(initial=0.0))
    grid[:n, :m] = dist
    assignment = hungarian(CostMatrix(size, size, grid))
    pairs = tuple((i, j, float(dist[i, j])) for i, j in assignment[:n] if j < m)
    return MatchResult(pairs, n - len(pairs), m - len(pairs))
