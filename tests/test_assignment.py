"""Assignment solver and penalty matching against exhaustive oracles."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ircount import assignment
from ircount.assignment import (
    CostMatrix,
    MatchResult,
    distance_batches,
    hungarian,
    match_points,
    matching_objective,
)
from ircount.metrics import MaedConfig, maed
from oracles import brute_force_match, reference_hungarian, scanned_column_reduction

unit = st.floats(0.0, 1.0, allow_nan=False)
point_lists = st.lists(st.tuples(unit, unit), max_size=6)


def exhaustive_min_total(cm: CostMatrix) -> float:
    """Independent oracle: minimum over all n! permutations."""
    n = cm.rows
    return min(
        sum(float(cm.costs[i, p[i]]) for i in range(n))
        for p in itertools.permutations(range(n))
    )


def test_cost_matrix_validation():
    with pytest.raises(ValueError):
        CostMatrix(2, 2, (1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        CostMatrix(1, 1, (-0.5,))
    with pytest.raises(ValueError):
        CostMatrix(1, 1, (math.inf,))


def test_cost_matrix_validation_messages():
    with pytest.raises(ValueError, match=r"^expected 4 costs, got 3$"):
        CostMatrix(2, 2, (1.0, 2.0, 3.0))
    with pytest.raises(ValueError, match=r"^costs must be finite and >= 0, got -0.5$"):
        CostMatrix(2, 2, (1.0, 2.0, -0.5, -1.0))
    with pytest.raises(ValueError, match=r"^costs must be finite and >= 0, got nan$"):
        CostMatrix(1, 2, (0.0, math.nan))
    with pytest.raises(ValueError, match="non-negative"):
        CostMatrix(-1, 0, ())


def test_cost_matrix_rejects_costs_shaped_against_its_dimensions():
    with pytest.raises(ValueError, match=r"^costs have shape \(3, 2\), expected \(2, 3\)$"):
        CostMatrix(2, 3, np.arange(6.0).reshape(3, 2))
    assert CostMatrix(2, 3, np.arange(6.0)).costs.tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]
    assert CostMatrix(0, 3, np.zeros((0, 3))).costs.shape == (0, 3)


def test_cost_matrix_holds_a_read_only_copy():
    grid = np.array([[1.0, 2.0], [3.0, 4.0]])
    cm = CostMatrix(2, 2, grid)
    grid[0, 0] = 9.0
    assert cm.costs.shape == (2, 2) and cm.costs.dtype == np.float64
    assert float(cm.costs[0, 0]) == 1.0 and float(cm.costs[1, 0]) == 3.0
    with pytest.raises(ValueError):
        cm.costs[0, 0] = 0.0
    assert CostMatrix(2, 2, (1.0, 2.0, 3.0, 4.0)).costs.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_hungarian_tie_rule_on_all_equal_costs():
    # Column reduction gives the last column to row 0 (the first minimal row
    # of every column); each later row then takes the lowest free column.
    assert hungarian(CostMatrix(4, 4, (0.0,) * 16))[0] == [(0, 3), (1, 0), (2, 1), (3, 2)]


def test_hungarian_one_by_one():
    assert hungarian(CostMatrix(1, 1, (3.0,)))[0] == [(0, 0)]


def test_hungarian_diagonal_optimum():
    cm = CostMatrix(2, 2, (0.0, 1.0, 1.0, 0.0))
    assign = hungarian(cm)[0]
    assert set(assign) == {(0, 0), (1, 1)}
    assert sum(float(cm.costs[r, c]) for r, c in assign) == 0.0


def test_hungarian_rejects_rectangular():
    with pytest.raises(ValueError, match="square"):
        hungarian(CostMatrix(2, 3, (0.0,) * 6))


def test_hungarian_empty():
    assert hungarian(CostMatrix(0, 0, ()))[0] == []


def test_hungarian_matches_exhaustive_on_random_6x6():
    rng = random.Random(606)
    for _ in range(60):
        cm = CostMatrix(6, 6, tuple(rng.random() for _ in range(36)))
        assign = hungarian(cm)[0]
        assert sorted(r for r, _ in assign) == list(range(6))
        assert sorted(c for _, c in assign) == list(range(6))
        total = sum(float(cm.costs[r, c]) for r, c in assign)
        assert total == pytest.approx(exhaustive_min_total(cm), abs=1e-12)


@given(st.integers(1, 5), st.integers(0, 2**31))
@settings(max_examples=40)
def test_hungarian_never_beaten_by_random_permutations(n, seed):
    rng = random.Random(seed)
    cm = CostMatrix(n, n, tuple(rng.random() for _ in range(n * n)))
    total = sum(float(cm.costs[r, c]) for r, c in hungarian(cm)[0])
    for _ in range(10):
        perm = list(range(n))
        rng.shuffle(perm)
        assert total <= sum(float(cm.costs[i, perm[i]]) for i in range(n)) + 1e-12


def test_hungarian_scaling_scales_total():
    rng = random.Random(17)
    cm = CostMatrix(5, 5, tuple(rng.random() for _ in range(25)))
    total = sum(float(cm.costs[r, c]) for r, c in hungarian(cm)[0])
    for factor in (0.25, 3.0, 1e3):
        scaled = CostMatrix(5, 5, tuple(c * factor for c in cm.costs))
        scaled_total = sum(float(scaled.costs[r, c]) for r, c in hungarian(scaled)[0])
        assert scaled_total == pytest.approx(total * factor, rel=1e-12)


def test_match_points_identical_sets_all_zero():
    pts = [(0.1, 0.1), (0.4, 0.9), (0.8, 0.3)]
    result = match_points(pts, pts)
    assert result.unmatched_gt == result.unmatched_pred == 0
    assert [d for _, _, d in result.pairs] == [0.0, 0.0, 0.0]
    assert matching_objective(result, 1.0) == 0.0


def test_match_points_empty_prediction():
    result = match_points([(0.2, 0.2)], [])
    assert result.pairs == ()
    assert (result.unmatched_gt, result.unmatched_pred) == (1, 0)
    assert matching_objective(result, 1.0) == 1.0


def test_match_points_both_empty():
    assert match_points([], []) == MatchResult((), 0, 0)


def test_match_points_rejects_unnormalized_coordinates():
    with pytest.raises(ValueError, match="normalized"):
        match_points([(1.2, 0.1)], [(0.2, 0.2)])


def test_match_points_pairs_cardinality():
    gt = [(0.1, 0.1), (0.9, 0.9), (0.5, 0.5)]
    pred = [(0.12, 0.1), (0.88, 0.9)]
    result = match_points(gt, pred)
    assert len(result.pairs) == 2
    assert (result.unmatched_gt, result.unmatched_pred) == (1, 0)
    used_gt = [i for i, _, _ in result.pairs]
    used_pred = [j for _, j, _ in result.pairs]
    assert len(set(used_gt)) == len(used_gt)
    assert len(set(used_pred)) == len(used_pred)


@given(point_lists, point_lists)
@settings(max_examples=80)
def test_match_points_symmetric_under_swap(gt, pred):
    fwd = match_points(gt, pred)
    rev = match_points(pred, gt)
    assert (fwd.unmatched_gt, fwd.unmatched_pred) == (rev.unmatched_pred, rev.unmatched_gt)
    assert matching_objective(fwd, 1.0) == pytest.approx(matching_objective(rev, 1.0), abs=1e-12)


@given(point_lists, point_lists, st.floats(0.1, 3.0, allow_nan=False))
@settings(max_examples=120)
def test_match_points_agrees_with_brute_force(gt, pred, penalty):
    fast = match_points(gt, pred)
    slow = brute_force_match(gt, pred, penalty)
    assert matching_objective(fast, penalty) == pytest.approx(
        matching_objective(slow, penalty), abs=1e-12
    )
    assert (fast.unmatched_gt, fast.unmatched_pred) == (slow.unmatched_gt, slow.unmatched_pred)


def test_brute_force_single_pair_identical_to_match_points():
    gt, pred = [(0.25, 0.75)], [(0.5, 0.5)]
    assert brute_force_match(gt, pred) == match_points(gt, pred)


def test_brute_force_empty():
    assert brute_force_match([], []) == MatchResult((), 0, 0)


def test_brute_force_rejects_large_instances():
    pts = [(i / 10, i / 10) for i in range(9)]
    with pytest.raises(ValueError, match="too large"):
        brute_force_match(pts, pts)


def test_matching_objective_sums_pairs_then_penalties():
    result = MatchResult(((0, 1, 0.5), (1, 0, 0.25)), 2, 1)
    assert matching_objective(result, 2.0) == 0.5 + 0.25 + 2.0 * 3


def square(n, rng, values):
    return CostMatrix(n, n, tuple(values(rng) for _ in range(n * n)))


@given(st.integers(1, 40), st.integers(0, 2**31))
@settings(max_examples=150, deadline=None)
def test_hungarian_equals_reference_on_continuous_costs(n, seed):
    cm = square(n, random.Random(seed), lambda rng: rng.random())
    assert hungarian(cm)[0] == reference_hungarian(cm)


@given(st.integers(1, 12), st.integers(1, 4), st.integers(0, 2**31))
@settings(max_examples=300, deadline=None)
def test_hungarian_objective_equals_reference_under_heavy_ties(n, top, seed):
    cm = square(n, random.Random(seed), lambda rng: float(rng.randint(0, top)))
    assign = hungarian(cm)[0]
    assert sorted(c for _, c in assign) == list(range(n))
    assert sum(float(cm.costs[r, c]) for r, c in assign) == sum(
        float(cm.costs[r, c]) for r, c in reference_hungarian(cm)
    )


@pytest.mark.parametrize("n,m,seed", [(1, 3, 1), (12, 9, 2), (40, 44, 3), (100, 110, 4), (190, 170, 5), (270, 300, 6)])
def test_hungarian_objective_equals_scipy_on_padded_instances(n, m, seed):
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(seed)
    gt, pred = rng.random((n, 2)), rng.random((m, 2))
    size, penalty = max(n, m), 0.05
    grid = np.full((size, size), penalty)
    grid[:n, :m] = np.hypot(gt[:, None, 0] - pred[None, :, 0], gt[:, None, 1] - pred[None, :, 1])
    rows, cols = optimize.linear_sum_assignment(grid)
    assign = hungarian(CostMatrix(size, size, grid))[0]
    assert sorted(c for _, c in assign) == list(range(size))
    assert math.fsum(grid[r, c] for r, c in assign) == pytest.approx(
        math.fsum(grid[rows, cols].tolist()), rel=1e-12
    )


def test_match_points_distances_are_math_hypot_bit_for_bit():
    # np.hypot and sqrt(dx*dx + dy*dy) each differ from math.hypot in the
    # last bit for some uniform pairs, so the check needs thousands of them.
    rng = random.Random(2024)
    edges = (0.0, 1.0, 0.5, 1e-300, 1.0 - 2**-53)

    def coord():
        return rng.choice(edges) if rng.random() < 0.2 else rng.random()

    checked = 0
    for _ in range(400):
        gt = [(coord(), coord()) for _ in range(rng.randint(0, 12))]
        pred = [(coord(), coord()) for _ in range(rng.randint(0, 12))] + gt[:2]
        for i, j, d in match_points(gt, pred).pairs:
            (gx, gy), (px, py) = gt[i], pred[j]
            assert type(d) is float
            assert d.hex() == math.hypot(gx - px, gy - py).hex()
            checked += 1
    assert checked > 1500


def test_match_points_names_the_first_unnormalized_point():
    # Predictions are checked before ground truth.
    with pytest.raises(ValueError, match=r"got \(2.0, 0.2\)$"):
        match_points([(0.1, 0.1), (0.5, -0.25)], [(0.3, 0.3), (2.0, 0.2)])
    with pytest.raises(ValueError, match=r"got \(0.5, -0.25\)$"):
        match_points([(0.1, 0.1), (0.5, -0.25), (1.5, 0.0)], [(0.3, 0.3)])
    with pytest.raises(ValueError, match=r"got \(2.0, 0.2\)$"):
        match_points([(0.1, 0.1)], [(2.0, 0.2), (math.nan, 0.0)])


def one_matrix(gt, pred):
    (dist,), _ = next(distance_batches([gt], [pred]))
    return dist


def test_match_points_checks_the_shape_of_given_distances():
    gt, pred = [(0.1, 0.1), (0.5, 0.5)], [(0.2, 0.2)]
    dist = one_matrix(gt, pred)
    assert dist.shape == (2, 1)
    assert match_points(gt, pred, distances=dist) == match_points(gt, pred)
    with pytest.raises(ValueError, match=r"^distances must have shape \(2, 1\), got \(1, 2\)$"):
        match_points(gt, pred, distances=dist.T)


# Stacks of square matrices on a k/4 grid, so that equal costs are common.
quarter_stacks = st.integers(1, 6).flatmap(
    lambda n: st.lists(
        st.lists(st.lists(st.integers(0, 4).map(lambda k: k / 4), min_size=n, max_size=n), min_size=n, max_size=n),
        min_size=1,
        max_size=4,
    )
)


@given(quarter_stacks)
@example([[[0.0, 0.0], [0.0, 0.0]]])  # both columns' first minimum is row 0
@example([[[0.5, 0.0], [0.0, 0.5]]])  # settled: rows take columns 1 and 0
def test_column_reduction_scans_columns_and_a_settled_matrix_needs_no_search(stack):
    for c in np.array(stack):
        col4row = scanned_column_reduction(c)
        if -1 not in col4row:  # every column's first minimum is in its own row
            first_min = c.argmin(axis=0)
            want = [(i, int(j)) for i, j in enumerate(np.argsort(first_min))]
            assert hungarian(CostMatrix(len(c), len(c), c))[0] == list(enumerate(col4row)) == want


EPSILON = 2.0**-50  # distance_batches' bound against math.hypot

# Coordinates in [0, 1] with subnormals, squares that underflow, and near neighbours.
unit_coords = st.one_of(
    st.floats(0.0, 1.0),
    st.integers(0, 1000).map(lambda k: k / 1000),
    st.sampled_from([0.0, 5e-324, 2.0**-1022, 1e-308, 1e-300, 1e-160, 1.0 - 2**-53, 1.0]),
)
unit_sets = st.lists(st.tuples(unit_coords, unit_coords), max_size=8)


def within_epsilon_of_hypot(gt, pred, dist):
    for (gx, gy), row in zip(gt, dist.tolist()):
        for (px, py), d in zip(pred, row):
            assert abs(d - math.hypot(gx - px, gy - py)) <= EPSILON


@given(unit_sets, unit_sets)
@example([(0.15, 0.0)], [(0.0, 0.36)])
@example([(1e-300, 5e-324)], [(0.0, 0.0)])
def test_distances_are_within_epsilon_of_math_hypot(gt, pred):
    within_epsilon_of_hypot(gt, pred, one_matrix(gt, pred))


def all_matrices(gt_sets, pred_sets):
    return [d for batch, _ in distance_batches(gt_sets, pred_sets) for d in batch]


def test_distance_matrices_equal_one_image_at_a_time_across_batches():
    rng = np.random.default_rng(5)
    sizes = [(0, 0), (3, 0), (0, 4), (150, 140), (1, 1), *[(int(a), int(b)) for a, b in rng.integers(0, 30, (120, 2))]]
    gt_sets = [rng.random((n, 3)) for n, _ in sizes]
    pred_sets = [rng.random((m, 2)) for _, m in sizes]
    got = all_matrices(gt_sets, pred_sets)
    assert sum(n * m for n, m in sizes) > 2 * assignment._BATCH_CELLS
    assert [d.shape for d in got] == sizes
    for g, p, d in zip(gt_sets, pred_sets, got):
        within_epsilon_of_hypot(g[:, :2].tolist(), p.tolist(), d)
        assert d.tobytes() == one_matrix(g, p).tobytes()
    # Each image's cells are laid out with its smaller set as the rows, so swapping the sets transposes them exactly.
    for d, swapped in zip(got, all_matrices(pred_sets, gt_sets)):
        assert swapped.tobytes() == d.T.tobytes()


@pytest.mark.parametrize(
    "points, shape",
    [
        (np.zeros((3, 1)), r"\(3, 1\)"),
        (np.zeros((2, 2, 2)), r"\(2, 2, 2\)"),
        (np.zeros(4), r"\(4,\)"),
        ([(0.1,), (0.2,)], r"\(2, 1\)"),
        (np.array(0.5), r"\(\)"),
        (np.float64(0.25), r"\(\)"),
        (0.5, r"\(\)"),
    ],
)
def test_match_points_names_the_shape_of_a_bad_point_set(points, shape):
    for gt, pred in ((points, [(0.1, 0.1)]), ([(0.1, 0.1)], points)):
        for call in (lambda: match_points(gt, pred), lambda: maed([gt], [pred])):
            with pytest.raises(ValueError, match=rf"\(k, >= 2\) array .* got shape {shape}$"):
                call()


@pytest.mark.parametrize("points", [np.array(0.5), 0.5])
def test_match_points_with_distances_gives_a_set_with_no_length_the_shape_error(points):
    for gt, pred in ((points, [(0.1, 0.1)]), ([(0.1, 0.1)], points)):
        with pytest.raises(ValueError, match=r"got shape \(\)$"):
            match_points(gt, pred, distances=np.zeros((1, 1)))


@pytest.mark.parametrize("points", [[(0.1, 0.2), (0.3,)], ["ab"], [(0.1, "x")], [object()]])
def test_match_points_rejects_point_sets_that_are_not_rows_of_numbers(points):
    with pytest.raises(ValueError, match="rows of numbers"):
        match_points(points, [(0.1, 0.1)])


def test_point_sets_take_empty_sequences_and_arrays_of_rows():
    rows = np.array([[0.25, 0.5, 1.0], [0.75, 0.5, 1.0]])
    assert match_points([], rows) == MatchResult((), 0, 2)
    assert match_points(rows, np.empty(0)) == MatchResult((), 2, 0)
    assert match_points(rows, list(rows)) == match_points(rows, rows.tolist()) == match_points(rows, rows[:, :2])


def test_maed_reports_an_earlier_bad_point_before_a_later_bad_shape():
    good, far = [(0.1, 0.1)], [(2.0, 0.2)]
    with pytest.raises(ValueError, match=r"got \(2.0, 0.2\)$"):
        maed([good, good], [far, np.zeros((1, 1))])
    with pytest.raises(ValueError, match=r"got shape \(1, 1\)$"):
        maed([good, good], [np.zeros((1, 1)), far])


def certified(costs, n, m):
    """Solve a square ``costs`` whose real part is n x m and ask the certificate."""
    cm = CostMatrix(len(costs), len(costs), costs)
    pairs, v = hungarian(cm)
    col4row = np.array([j for _, j in pairs])
    return assignment._certified(cm.costs, col4row, v, n, m)


def test_hungarian_duals_price_every_pair_at_zero_and_no_cell_below():
    rng = np.random.default_rng(9)
    for size in (1, 2, 7, 40):
        cm = CostMatrix(size, size, rng.random((size, size)))
        pairs, v = hungarian(cm)
        col4row = np.array([j for _, j in pairs])
        u = cm.costs[np.arange(size), col4row] - v[col4row]
        reduced = cm.costs - u[:, None] - v
        assert reduced.min() >= -1e-15
        assert np.all(reduced[np.arange(size), col4row] == 0.0)


@pytest.mark.parametrize("gap, want", [(2.0**-40, False), (2.0**-20, True), (0.0, False)])
def test_certificate_refuses_a_matching_that_wins_by_less_than_tau(gap, want):
    # The diagonal costs 2 - gap, the other matching 2.
    costs = np.array([[0.0, 1.0], [1.0, 2.0 - gap]])
    assert certified(costs, 2, 2) is want
    # The same pairs in a 2 x 3 image, whose padding row takes the far column.
    assert certified(np.pad(costs, ((0, 1), (0, 1)), constant_values=3.0), 2, 3) is want


def counted_hungarian(monkeypatch):
    calls = []

    def counting(costs):
        calls.append(costs.rows)
        return hungarian(costs)

    monkeypatch.setattr(assignment, "hungarian", counting)
    return calls


@pytest.mark.parametrize("extra_side", ["gt", "pred"])
def test_points_left_on_padding_that_tie_everywhere_still_certify(monkeypatch, extra_side):
    # (0.1, 0.5) and (0.9, 0.5) are as far from every point on x = 0.5, so
    # either may go unmatched; no pair changes, and one solve is enough.
    pair = [(0.5, 0.2), (0.5, 0.8)]
    both = pair + [(0.1, 0.5), (0.9, 0.5)]
    gt, pred = (both, pair) if extra_side == "gt" else (pair, both)
    calls = counted_hungarian(monkeypatch)
    result = match_points(gt, pred)
    assert calls == [4]
    assert result.pairs == ((0, 0, 0.0), (1, 1, 0.0))
    assert (result.unmatched_gt, result.unmatched_pred) == ((2, 0) if extra_side == "gt" else (0, 2))


@pytest.mark.parametrize("pred", [[(0.5, 0.5), (0.75, 0.5)], [(0.75, 0.5), (0.5, 0.5)]])
def test_a_tied_matching_is_refused_and_solved_on_math_hypot_cells(monkeypatch, pred):
    gt = [(0.0, 0.5), (0.125, 0.5)]  # both matchings cost 1.125
    calls = counted_hungarian(monkeypatch)
    result = match_points(gt, pred)
    assert calls == [2, 2]
    want = hungarian(CostMatrix(2, 2, [[math.hypot(g[0] - p[0], g[1] - p[1]) for p in pred] for g in gt]))[0]
    assert [(i, j) for i, j, _ in result.pairs] == want
    assert matching_objective(result, 1.0) == 1.125


@given(unit_sets, unit_sets)
@settings(max_examples=150)
def test_match_points_pairs_are_the_math_hypot_solution(gt, pred):
    n, m = len(gt), len(pred)
    size = max(n, m)
    dist = [[math.hypot(gx - px, gy - py) for px, py in pred] for gx, gy in gt]
    grid = np.full((size, size), max((d for row in dist for d in row), default=0.0))
    grid[:n, :m] = np.array(dist).reshape(n, m)
    want = tuple((i, j, dist[i][j]) for i, j in hungarian(CostMatrix(size, size, grid))[0] if i < n and j < m)
    assert match_points(gt, pred).pairs == want
