"""Assignment solver and penalty matching against exhaustive oracles."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ircount.assignment import (
    CostMatrix,
    MatchResult,
    hungarian,
    match_points,
    matching_objective,
)
from oracles import brute_force_match, reference_hungarian

unit = st.floats(0.0, 1.0, allow_nan=False)
point_lists = st.lists(st.tuples(unit, unit), max_size=6)


def exhaustive_min_total(cm: CostMatrix) -> float:
    """Independent oracle: minimum over all n! permutations."""
    n = cm.rows
    return min(
        sum(cm.at(i, p[i]) for i in range(n))
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


def test_cost_matrix_holds_a_read_only_copy():
    grid = np.array([[1.0, 2.0], [3.0, 4.0]])
    cm = CostMatrix(2, 2, grid)
    grid[0, 0] = 9.0
    assert cm.costs.shape == (2, 2) and cm.costs.dtype == np.float64
    assert cm.at(0, 0) == 1.0 and cm.at(1, 0) == 3.0
    with pytest.raises(ValueError):
        cm.costs[0, 0] = 0.0
    assert CostMatrix(2, 2, (1.0, 2.0, 3.0, 4.0)).costs.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_hungarian_tie_rule_on_all_equal_costs():
    # Column reduction gives the last column to row 0 (the first minimal row
    # of every column); each later row then takes the lowest free column.
    assert hungarian(CostMatrix(4, 4, (0.0,) * 16)) == [(0, 3), (1, 0), (2, 1), (3, 2)]


def test_hungarian_one_by_one():
    assert hungarian(CostMatrix(1, 1, (3.0,))) == [(0, 0)]


def test_hungarian_diagonal_optimum():
    cm = CostMatrix(2, 2, (0.0, 1.0, 1.0, 0.0))
    assign = hungarian(cm)
    assert set(assign) == {(0, 0), (1, 1)}
    assert sum(cm.at(r, c) for r, c in assign) == 0.0


def test_hungarian_rejects_rectangular():
    with pytest.raises(ValueError, match="square"):
        hungarian(CostMatrix(2, 3, (0.0,) * 6))


def test_hungarian_empty():
    assert hungarian(CostMatrix(0, 0, ())) == []


def test_hungarian_matches_exhaustive_on_random_6x6():
    rng = random.Random(606)
    for _ in range(60):
        cm = CostMatrix(6, 6, tuple(rng.random() for _ in range(36)))
        assign = hungarian(cm)
        assert sorted(r for r, _ in assign) == list(range(6))
        assert sorted(c for _, c in assign) == list(range(6))
        total = sum(cm.at(r, c) for r, c in assign)
        assert total == pytest.approx(exhaustive_min_total(cm), abs=1e-12)


@given(st.integers(1, 5), st.integers(0, 2**31))
@settings(max_examples=40)
def test_hungarian_never_beaten_by_random_permutations(n, seed):
    rng = random.Random(seed)
    cm = CostMatrix(n, n, tuple(rng.random() for _ in range(n * n)))
    total = sum(cm.at(r, c) for r, c in hungarian(cm))
    for _ in range(10):
        perm = list(range(n))
        rng.shuffle(perm)
        assert total <= sum(cm.at(i, perm[i]) for i in range(n)) + 1e-12


def test_hungarian_scaling_scales_total():
    rng = random.Random(17)
    cm = CostMatrix(5, 5, tuple(rng.random() for _ in range(25)))
    total = sum(cm.at(r, c) for r, c in hungarian(cm))
    for factor in (0.25, 3.0, 1e3):
        scaled = CostMatrix(5, 5, tuple(c * factor for c in cm.costs))
        scaled_total = sum(scaled.at(r, c) for r, c in hungarian(scaled))
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
    assert hungarian(cm) == reference_hungarian(cm)


@given(st.integers(1, 12), st.integers(1, 4), st.integers(0, 2**31))
@settings(max_examples=300, deadline=None)
def test_hungarian_objective_equals_reference_under_heavy_ties(n, top, seed):
    cm = square(n, random.Random(seed), lambda rng: float(rng.randint(0, top)))
    assign = hungarian(cm)
    assert sorted(c for _, c in assign) == list(range(n))
    assert sum(cm.at(r, c) for r, c in assign) == sum(
        cm.at(r, c) for r, c in reference_hungarian(cm)
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
    assign = hungarian(CostMatrix(size, size, grid))
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
