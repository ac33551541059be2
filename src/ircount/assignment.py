"""Optimal point matching between ground-truth and predicted locations.

Every point of the smaller set is paired with a distinct point of the larger
one at the least total distance. Unmatched points are only counted here;
what they cost is up to the scorer (``matching_objective``, ``metrics.maed``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

Point = Sequence[float]  # an (x, y, ...) row; a set of them may also be a (k, >= 2) array
_MAX_COST = float(np.finfo(np.float64).max) / 8  # CostMatrix's bound, argued in its docstring


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """Dense matrix of non-negative costs of at most ``_MAX_COST``.

    ``costs`` may be given flat in row-major order or shaped ``(rows, cols)``;
    it is stored as a read-only ``(rows, cols)`` float64 array. On costs up to C,
    ``hungarian``'s duals stay in [-2C, C] (``_TAU``) and a search ends on a free
    column within C of its free row, so its sums stay within 5C: finite for C <= max / 8.
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
        ok = (costs >= 0.0) & (costs <= _MAX_COST)  # false on nan and inf too
        if not ok.all():
            bad = float(costs.flat[np.argmin(ok)])
            rule = f"at most {_MAX_COST!r}" if _MAX_COST < bad < math.inf else "finite and >= 0"
            raise ValueError(f"costs must be {rule}, got {bad!r}")
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


def hungarian(costs: CostMatrix) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Minimum-cost perfect assignment on a square matrix.

    Jonker–Volgenant: each column's dual starts at its minimum, and column
    reduction gives each column, last to first, to its first minimal row if
    free. Each row left free then gets a Dijkstra search for a shortest
    augmenting path on the reduced costs, one row at a time in ascending order.

    Ties resolve deterministically: a column's minimum is its first
    minimal row, and the search settles the lowest-index column among
    equally distant ones. Returns (row, col) pairs sorted by row and the
    column duals ``v``: with ``u_i = c[i, col_i] - v[col_i]``, ``c - u - v``
    is zero on the pairs and, up to rounding, non-negative.
    """
    if costs.rows != costs.cols:
        raise ValueError(f"square matrix required, got {costs.rows} x {costs.cols}")
    n = costs.rows
    if n == 0:
        return [], np.zeros(0)
    c = costs.costs
    v = c.min(axis=0)
    col4row, row4col = [-1] * n, [-1] * n
    for j, i in reversed(list(enumerate(c.argmin(axis=0).tolist()))):
        if col4row[i] < 0:
            col4row[i], row4col[j] = j, i
    # Row duals stay implicit: zero while free, c[i, j] - v[j] once matched to column j.
    for row in [i for i in range(n) if col4row[i] < 0]:
        _augment(c, v, col4row, row4col, row)
    return list(enumerate(col4row)), v


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


_TAU = 2.0**-30
"""Margin by which a matching found on ``np.sqrt`` distances must beat every matching
with other pairs to be taken as the answer on ``math.hypot`` ones.

Let C be the padded S x S matrix solved and H the same with ``math.hypot`` cells, each
within ε = 2⁻⁵⁰ of C's (``distance_batches``). Matchings differ on alternating cycles
covering at most S rows, so the excess of one over another moves by at most 2Sε from C
to H. The certificates show an excess above τ - δ on C, where δ, the rounding of the
check and of the duals, is below S·2⁻⁴⁷: on costs up to √2 the duals stay in [-2√2, √2]
(a free column keeps its minimum as dual, so no row dual exceeds √2, and a path lowers a
column dual by at most √2), so a reduced cost carries a few roundings below 2⁻⁵⁰. On H
the excess is above τ - S·(2ε + 2⁻⁴⁷) > 0 for S ≤ 2¹⁵ (an 8 GiB matrix), so
``hungarian``, optimal on H up to the same rounding, returns the same pairs there.
"""


def _certified(c: np.ndarray, col4row: np.ndarray, v: np.ndarray, n: int, m: int) -> bool:
    """Whether ``col4row``, solved with column duals ``v``, pairs the real n x m part of ``c``
    more than ``_TAU`` cheaper than any other assignment. Another one differs on alternating
    cycles, each row taking the next one's column; so row i gets an edge to row k when
    (i, col4row[k]) has reduced cost at most ``_TAU``, and no cycle certifies. Rows on
    padding or given a padding column are one node, whose edges to itself go: they change no pair.
    """
    rows = np.arange(len(c))
    u = c[rows, col4row] - v[col4row]
    src, col = np.divmod(np.flatnonzero(c - u[:, None] <= v + _TAU), len(c))
    node = np.where((rows >= n) | (col4row >= m), len(c), rows)
    src, dst = node[src], node[np.argsort(col4row)][col]
    src, dst = src[src != dst], dst[src != dst]
    # Prune edges from nodes that nothing enters or to nodes that lead nowhere; any rest holds a cycle.
    while src.size:
        live = (np.bincount(dst, minlength=len(c) + 1) > 0)[src] & (np.bincount(src, minlength=len(c) + 1) > 0)[dst]
        if live.all():
            return False
        src, dst = src[live], dst[live]
    return True


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


def distance_batches(
    gt_sets: Sequence[Sequence[Point]], pred_sets: Sequence[Sequence[Point]]
) -> Iterator[tuple[list[np.ndarray], dict[int, list[float]]]]:
    """Each image's ``(len(gt), len(pred))`` Euclidean distances, one run of about
    ``_BATCH_CELLS`` cells at a time, with the pair distances, in gt order, of each image
    of the run that settles without the solver, keyed by its position in the run.

    An image settles when each point of its smaller set has a nearest point in the
    other set more than ``_TAU`` nearer than its second nearest and nearest to no other
    point of the set. Another matching moves points off their nearest at above ``_TAU``
    each, so ``hungarian`` pairs them so on ``math.hypot`` cells too. The rule only
    reads the cells it yields.

    An entry is ``sqrt(dx*dx + dy*dy)`` for the rounded differences that
    ``math.hypot`` gets too. With u = 2⁻⁵³, each square is off by u relative
    or, if it underflows, 2⁻¹⁰⁷⁵; the sum adds u, and the root halves the
    relative error and adds u. So an entry is within 3u·h + 2⁻⁵³⁶ < 2.2·2⁻⁵²
    of the length h ≤ √2. ``math.hypot`` is within an ulp of h (CPython's is
    correctly rounded but in rare cases), so the two differ by ε < 2⁻⁵⁰.

    A bad point raises the error that ``match_points`` on its image alone
    raises: predictions are checked before ground truth, and the first bad
    image in order is named.
    """
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


def _batch_distances(xy: list[np.ndarray]) -> tuple[list[np.ndarray], dict[int, list[float]]]:
    """The distance matrices and settled images (``distance_batches``) of a batch of
    (x, y) columns, pred and gt alternating."""
    images = list(zip(xy[1::2], xy[0::2]))  # (gt, pred)
    n, m = (np.array([len(rows) for rows in sets]) for sets in zip(*images))
    wide = n <= m  # an image's rows are its gt points, else its pred points
    r, c = (np.concatenate(sets) for sets in zip(*(gp if w else gp[::-1] for gp, w in zip(images, wide.tolist()))))
    if not (_in_unit(r) and _in_unit(c)):
        for points in xy:
            _check_unit(points)
    rows, width = np.minimum(n, m), np.maximum(n, m)
    # Cells run row-major within each image: every row meets the width
    # points of its image's other set, found at this offset from the cell index.
    length = np.repeat(width, rows)
    start = np.cumsum(length) - length
    ci = np.arange(length.sum()) + np.repeat(np.repeat(np.cumsum(width) - width, rows) - start, length)
    dx, dy = (np.repeat(r[:, k], length) - c[:, k].take(ci) for k in (0, 1))
    dist = np.sqrt(dx * dx + dy * dy)  # (p - g)² is (g - p)², so a tall image's cells are its transpose's
    ends = np.cumsum(rows * width).tolist()
    blocks = (dist[end - a * b : end].reshape(a, b) for end, a, b in zip(ends, rows.tolist(), width.tolist()))
    matrices = [block if w else block.T for block, w in zip(blocks, wide.tolist())]
    # A row is clear when one cell alone, its nearest, is within _TAU of its minimum. Cells are only read.
    close = dist - np.repeat(np.minimum.reduceat(dist, start), length) <= _TAU
    hits = np.flatnonzero(close)
    first = hits[np.searchsorted(hits, start)]
    image, col = np.repeat(np.arange(len(n)), rows), first - start
    settled = np.ones(len(n), dtype=bool)
    settled[image[np.add.reduceat(close, start, dtype=np.intp) > 1]] = False
    taken = np.sort(image * width.max() + col)
    settled[taken[1:][taken[1:] == taken[:-1]] // width.max()] = False
    gt_order = np.where(wide[image], np.arange(len(image)), col)  # a tall image's gt points are its columns
    keep = np.flatnonzero(settled[image])
    keep = keep[np.lexsort((gt_order[keep], image[keep]))]
    dx, dy = (r[keep, k] - c[ci[first[keep]], k] for k in (0, 1))
    pair_distances = iter(map(math.hypot, dx.tolist(), dy.tolist()))  # math.hypot is sign-symmetric
    return matrices, {k: list(itertools.islice(pair_distances, int(rows[k]))) for k in np.flatnonzero(settled).tolist()}


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
    ``distance_batches``, which yields each batch's matrices with the pair
    distances of the images that settle without the solver; by default it
    is computed here, the same way.

    The distance matrix is padded to a max(n, m) square with its largest
    entry and solved. Every perfect assignment of that square uses exactly
    |n - m| padding entries, so the padding value never changes which pairs
    win. Assignments to padding become unmatched counts. Unless ``_certified``
    shows that the ``math.hypot`` matrix gives the same pairs, that matrix is
    built and solved. A pair's distance is ``math.hypot(gx - px, gy - py)``.
    """
    dist = next(distance_batches([gt], [pred]))[0][0] if distances is None else distances
    g, p = _xy(gt), _xy(pred)
    if np.shape(dist) != (len(g), len(p)):
        raise ValueError(f"distances must have shape {(len(g), len(p))}, got {np.shape(dist)}")
    n, m = len(g), len(p)
    size = max(n, m)
    grid = np.full((size, size), dist.max(initial=0.0))
    grid[:n, :m] = dist
    assignment, v = hungarian(CostMatrix(size, size, grid))
    col4row = np.array([j for _, j in assignment], dtype=np.intp)
    if not _certified(grid, col4row, v, n, m):
        dx, dy = (np.subtract.outer(g[:, k], p[:, k]).ravel().tolist() for k in (0, 1))
        grid[:n, :m] = np.fromiter(map(math.hypot, dx, dy), dtype=np.float64, count=n * m).reshape(n, m)
        grid[n:] = grid[:, m:] = grid[:n, :m].max(initial=0.0)
        assignment, _ = hungarian(CostMatrix(size, size, grid))
    gi, pi = np.array([(i, j) for i, j in assignment[:n] if j < m], dtype=np.intp).reshape(-1, 2).T
    dx, dy = (g[gi, k] - p[pi, k] for k in (0, 1))
    pairs = tuple(zip(gi.tolist(), pi.tolist(), map(math.hypot, dx.tolist(), dy.tolist())))
    return MatchResult(pairs, n - len(pairs), m - len(pairs))
