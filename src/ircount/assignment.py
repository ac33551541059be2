"""Optimal point matching between ground-truth and predicted locations.

Unequal set sizes are handled by padding the cost matrix to square with a
fixed penalty, so every unmatched point contributes exactly one penalty
term to the objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

Point = object  # anything with .cx/.cy, or a (x, y) pair


@dataclass(frozen=True)
class CostMatrix:
    """Dense row-major matrix of finite, non-negative costs."""

    rows: int
    cols: int
    costs: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        object.__setattr__(self, "costs", tuple(float(c) for c in self.costs))
        if len(self.costs) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} costs, got {len(self.costs)}"
            )
        for c in self.costs:
            if not (math.isfinite(c) and c >= 0.0):
                raise ValueError(f"costs must be finite and >= 0, got {c!r}")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[float]]) -> "CostMatrix":
        n = len(rows)
        m = len(rows[0]) if n else 0
        if any(len(r) != m for r in rows):
            raise ValueError("ragged cost rows")
        return cls(n, m, tuple(c for row in rows for c in row))

    def at(self, r: int, c: int) -> float:
        return self.costs[r * self.cols + c]


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

    O(n^3) shortest-augmenting-path method with row/column potentials.
    Columns are scanned in ascending order and strict comparisons keep the
    first minimum, so equal-cost instances resolve deterministically.
    Returns (row, col) pairs sorted by row.
    """
    if costs.rows != costs.cols:
        raise ValueError(f"square matrix required, got {costs.rows} x {costs.cols}")
    n = costs.rows
    if n == 0:
        return []
    flat = costs.costs
    inf = math.inf
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    match_col = [0] * (n + 1)  # match_col[j] = 1-based row matched to column j
    parent = [0] * (n + 1)

    for row in range(1, n + 1):
        match_col[0] = row
        j0 = 0
        min_slack = [inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match_col[j0]
            delta = inf
            j1 = 0
            base = (i0 - 1) * n
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = flat[base + j - 1] - u[i0] - v[j]
                if cur < min_slack[j]:
                    min_slack[j] = cur
                    parent[j] = j0
                if min_slack[j] < delta:
                    delta = min_slack[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match_col[j]] += delta
                    v[j] -= delta
                else:
                    min_slack[j] -= delta
            j0 = j1
            if match_col[j0] == 0:
                break
        while j0:
            j1 = parent[j0]
            match_col[j0] = match_col[j1]
            j0 = j1
    return sorted((match_col[j] - 1, j - 1) for j in range(1, n + 1))


def _coords(point: Point) -> tuple[float, float]:
    if hasattr(point, "cx"):
        x, y = float(point.cx), float(point.cy)
    else:
        x, y = float(point[0]), float(point[1])
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise ValueError(f"point coordinates must be normalized to [0, 1], got ({x}, {y})")
    return x, y


def _distance_matrix(gt: Sequence[Point], pred: Sequence[Point]) -> list[list[float]]:
    pred_xy = [_coords(p) for p in pred]
    rows = []
    for g in gt:
        gx, gy = _coords(g)
        rows.append([math.hypot(gx - px, gy - py) for px, py in pred_xy])
    return rows


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


def match_points(gt: Sequence[Point], pred: Sequence[Point], penalty: float = 1.0) -> MatchResult:
    """Optimal pairing of two point sets under a fixed unmatched penalty.

    Builds the max(n, m)-square matrix whose real entries are Euclidean
    distances and whose padding entries all cost ``penalty``, then solves
    it exactly. Assignments involving padding become unmatched counts.
    """
    if not penalty > 0.0:
        raise ValueError(f"penalty must be positive, got {penalty}")
    n, m = len(gt), len(pred)
    size = max(n, m)
    if size == 0:
        return MatchResult((), 0, 0)
    dist = _distance_matrix(gt, pred)
    grid = [
        [dist[i][j] if i < n and j < m else penalty for j in range(size)]
        for i in range(size)
    ]
    assignment = hungarian(CostMatrix.from_rows(grid))
    pairs = tuple(
        (i, j, dist[i][j]) for i, j in assignment if i < n and j < m
    )
    return MatchResult(pairs, n - len(pairs), m - len(pairs))
