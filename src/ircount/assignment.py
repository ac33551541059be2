"""Optimal point matching between ground-truth and predicted locations.

Every point of the smaller set is paired with a distinct point of the larger
one at the least total distance. Unmatched points are only counted here;
what they cost is up to the scorer (``matching_objective``, ``metrics.maed``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

Point = object  # anything with .cx/.cy, or a (x, y) pair; a set of them may also be a (k, >= 2) array of rows


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """Dense matrix of finite, non-negative costs.

    ``costs`` may be given flat in row-major order or already shaped; it
    is stored as a read-only ``(rows, cols)`` float64 array.
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
        costs = costs.reshape(self.rows, self.cols)
        ok = np.isfinite(costs) & (costs >= 0.0)
        if not ok.all():
            bad = float(costs.flat[np.argmin(ok)])
            raise ValueError(f"costs must be finite and >= 0, got {bad!r}")
        costs.flags.writeable = False
        object.__setattr__(self, "costs", costs)

    def at(self, r: int, c: int) -> float:
        return float(self.costs[r, c])


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

    Jonker–Volgenant: column reduction sets each column's dual to its
    minimum and gives the column, scanning from the last to the first, to
    the row holding that minimum if the row is still free. Every row left
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
    col4row = [-1] * n
    row4col = [-1] * n
    first_min = c.argmin(axis=0).tolist()
    for j in range(n - 1, -1, -1):
        i = first_min[j]
        if col4row[i] < 0:
            col4row[i] = j
            row4col[j] = i
    # With v at the column minima and every row dual at zero, c - v >= 0 and
    # each assigned pair is tight. A row's dual stays implicit from here on:
    # zero while free, c[i, j] - v[j] once matched to column j.
    for row in [i for i in range(n) if col4row[i] < 0]:
        _augment(c, v, col4row, row4col, row)
    return list(enumerate(col4row))


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


def _coords(points: Sequence[Point] | np.ndarray) -> np.ndarray:
    if isinstance(points, np.ndarray) and points.ndim == 2:
        xy = np.asarray(points[:, :2], dtype=np.float64)  # rows (x, y, ...), as ImageRecord arrays are
    else:
        xy = np.array(
            [(p.cx, p.cy) if hasattr(p, "cx") else (p[0], p[1]) for p in points], dtype=np.float64
        ).reshape(-1, 2)
    if xy.size and not (xy.min() >= 0.0 and xy.max() <= 1.0):
        bad = ~((xy >= 0.0) & (xy <= 1.0)).all(axis=1)
        x, y = xy[np.argmax(bad)].tolist()
        raise ValueError(f"point coordinates must be normalized to [0, 1], got ({x}, {y})")
    return xy


def _distance_matrix(gt: Sequence[Point], pred: Sequence[Point]) -> np.ndarray:
    """``(len(gt), len(pred))`` Euclidean distances, each bit-identical to
    ``math.hypot(gx - px, gy - py)`` (``np.hypot`` rounds differently)."""
    p = _coords(pred)  # predictions first, so they are checked first
    g = _coords(gt)
    dx = (g[:, None, 0] - p[None, :, 0]).ravel().tolist()
    dy = (g[:, None, 1] - p[None, :, 1]).ravel().tolist()
    dist = np.fromiter(map(math.hypot, dx, dy), dtype=np.float64, count=len(dx))
    return dist.reshape(len(g), len(p))


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


def match_points(gt: Sequence[Point], pred: Sequence[Point]) -> MatchResult:
    """Pair every point of the smaller set with a distinct point of the
    larger one at the least total Euclidean distance.

    The distance matrix is padded to a max(n, m) square with its largest
    entry and solved exactly. Every perfect assignment of that square uses
    exactly |n - m| padding entries, so the padding value never changes
    which pairs win. Assignments to padding become unmatched counts.
    """
    n, m = len(gt), len(pred)
    size = max(n, m)
    if size == 0:
        return MatchResult((), 0, 0)
    dist = _distance_matrix(gt, pred)
    grid = np.full((size, size), dist.max(initial=0.0))
    grid[:n, :m] = dist
    assignment = hungarian(CostMatrix(size, size, grid))
    pairs = tuple((i, j, float(dist[i, j])) for i, j in assignment[:n] if j < m)
    return MatchResult(pairs, n - len(pairs), m - len(pairs))
