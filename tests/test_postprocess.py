"""IoU, greedy NMS vs a naive oracle, and threshold tuning."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import box_rows, make_box
from ircount import postprocess
from ircount.corpus import BoundingBox, CountLabel, Dataset, ImageRecord
from ircount.postprocess import (
    ThresholdCurve,
    best_point,
    confidence_filter,
    count_pairs_from_datasets,
    default_grid,
    iou,
    nms,
    tune_threshold,
)
from oracles import accuracy_at_threshold, naive_nms

boxes_strategy = st.builds(
    BoundingBox,
    st.floats(0.1, 0.9, allow_nan=False),
    st.floats(0.1, 0.9, allow_nan=False),
    st.floats(0.05, 0.4, allow_nan=False),
    st.floats(0.05, 0.4, allow_nan=False),
    st.floats(0.0, 1.0, allow_nan=False),
)


def random_boxes(rng, n):
    return [
        BoundingBox(
            rng.uniform(0.2, 0.8),
            rng.uniform(0.2, 0.8),
            rng.uniform(0.05, 0.35),
            rng.uniform(0.05, 0.35),
            rng.random(),
        )
        for _ in range(n)
    ]


def test_iou_identical_is_one():
    b = make_box(0.5, 0.5, 0.4, 0.2)
    assert iou(b, b) == 1.0


def test_iou_disjoint_is_zero():
    a = make_box(0.2, 0.2, 0.1, 0.1)
    b = make_box(0.8, 0.8, 0.1, 0.1)
    assert iou(a, b) == 0.0


def test_iou_hand_geometry_one_seventh():
    a = BoundingBox(0.5, 0.5, 1.0, 1.0)
    b = BoundingBox(1.0, 1.0, 1.0, 1.0)
    assert iou(a, b) == pytest.approx(1.0 / 7.0, abs=1e-12)


@given(boxes_strategy, boxes_strategy)
def test_iou_symmetric_and_bounded(a, b):
    assert iou(a, b) == iou(b, a)
    assert 0.0 <= iou(a, b) <= 1.0


def test_confidence_filter_keeps_all_at_zero():
    rows = box_rows([make_box(score=0.1), make_box(score=0.9)])
    assert confidence_filter(rows, 0.0).tolist() == rows.tolist()


def test_confidence_filter_threshold_is_inclusive():
    rows = box_rows([make_box(score=0.3), make_box(score=0.6), make_box(score=0.5)])
    kept = confidence_filter(rows, 0.5)
    assert kept[:, 4].tolist() == [0.6, 0.5]


def test_confidence_filter_rejects_out_of_range():
    with pytest.raises(ValueError):
        confidence_filter(np.empty((0, 5)), 1.5)


@given(st.lists(boxes_strategy, max_size=12), st.floats(0, 1), st.floats(0, 1))
def test_confidence_filter_monotone(boxes, c1, c2):
    low, high = min(c1, c2), max(c1, c2)
    rows = box_rows(boxes)
    assert confidence_filter(confidence_filter(rows, low), high).tolist() == confidence_filter(rows, high).tolist()


@pytest.mark.parametrize(
    "boxes",
    [np.full((5, 3), 0.5), np.full((3, 5, 1), 0.5), np.full(5, 0.5), [], [make_box()]],
    ids=["5x3", "3x5x1", "flat", "empty-list", "items"],
)
def test_nms_and_confidence_filter_take_only_box_rows(boxes):
    with pytest.raises(ValueError, match=r"\(k, 5\) rows"):
        nms(boxes, 0.5)
    with pytest.raises(ValueError, match=r"\(k, 5\) rows"):
        confidence_filter(boxes, 0.5)


def test_nms_identical_boxes_keep_highest_score():
    a = make_box(0.5, 0.5, 0.2, 0.2, score=0.9)
    b = make_box(0.5, 0.5, 0.2, 0.2, score=0.8)
    assert nms(box_rows([b, a]), 0.5).tolist() == box_rows([a]).tolist()


def test_nms_disjoint_keeps_all():
    rows = box_rows([make_box(0.2, 0.2, 0.1, 0.1, 0.3), make_box(0.8, 0.8, 0.1, 0.1, 0.9)])
    assert nms(rows, 0.1).tolist() == rows.tolist()


def test_nms_matches_naive_reference_on_randoms():
    rng = random.Random(904)
    for _ in range(300):
        boxes = random_boxes(rng, rng.randint(0, 10))
        thresh = rng.random()
        rows = box_rows(boxes)
        assert nms(rows, thresh).tolist() == rows[naive_nms(boxes, thresh)].tolist()


@given(st.lists(boxes_strategy, max_size=10), st.floats(0, 1))
@settings(max_examples=60)
def test_nms_subset_and_fixed_point(boxes, thresh):
    rows = box_rows(boxes)
    kept = nms(rows, thresh)
    assert all(row in rows.tolist() for row in kept.tolist())
    assert nms(kept, thresh).tolist() == kept.tolist()


# Dyadic lattice coordinates make exact ties: edge-touching boxes (iw == 0),
# repeated IoU values and equal scores.
LATTICE = [i / 16 for i in range(1, 16)]
SIZES = [i / 16 for i in range(1, 9)]
TIED_SCORES = [0.0, 0.25, 0.5, 0.75, 1.0]


def mixed_boxes(rng, n):
    """Random boxes, lattice boxes, tied scores and value-equal duplicates."""
    boxes = []
    for _ in range(n):
        kind = rng.random()
        if boxes and kind < 0.15:
            b = rng.choice(boxes)
            boxes.append(BoundingBox(b.cx, b.cy, b.w, b.h, b.score))
        elif kind < 0.6:
            score = rng.choice(TIED_SCORES) if rng.random() < 0.5 else rng.random()
            boxes.append(
                BoundingBox(rng.choice(LATTICE), rng.choice(LATTICE), rng.choice(SIZES), rng.choice(SIZES), score)
            )
        else:
            boxes.extend(random_boxes(rng, 1))
    return boxes


def assert_nms_matches_naive(boxes, thresh):
    """The rows of the boxes that the oracle keeps, in their order."""
    rows = box_rows(boxes)
    assert nms(rows, thresh).tolist() == rows[naive_nms(boxes, thresh)].tolist()


@given(
    st.integers(0, 150),
    st.integers(0, 2**32 - 1),
    st.one_of(st.sampled_from([0.0, 1.0, 1 / 3, 0.5]), st.floats(0, 1)),
)
@settings(max_examples=80, deadline=None)
def test_nms_matches_naive_reference_up_to_150_boxes(k, seed, thresh):
    assert_nms_matches_naive(mixed_boxes(random.Random(seed), k), thresh)


@pytest.mark.parametrize("block", [1, 7])
def test_nms_matches_naive_reference_across_row_blocks(monkeypatch, block):
    monkeypatch.setattr(postprocess, "_NMS_BLOCK", block)
    rng = random.Random(block)
    for _ in range(40):
        boxes = mixed_boxes(rng, rng.randint(0, 60))
        assert_nms_matches_naive(boxes, rng.choice([0.0, 0.5, rng.random()]))


def test_nms_edge_touching_boxes_do_not_overlap():
    left = BoundingBox(0.25, 0.5, 0.25, 0.25, 0.9)
    right = BoundingBox(0.5, 0.5, 0.25, 0.25, 0.8)
    assert left.cx + left.w / 2 == right.cx - right.w / 2
    rows = box_rows([left, right])
    assert nms(rows, 0.0).tolist() == rows.tolist()


def test_nms_threshold_one_keeps_duplicates():
    rows = box_rows([make_box(0.5, 0.5, 0.2, 0.2, score=0.5)] * 2)
    assert nms(rows, 1.0).tolist() == rows.tolist()
    assert nms(rows, 0.999).tolist() == rows[:1].tolist()


def test_threshold_curve_invariants():
    curve = ThresholdCurve([0.0, 0.5, 1.0], [0.25, 0.75, 0.75])
    assert curve.best_threshold == 0.5
    assert curve.best_accuracy == 0.75
    with pytest.raises(ValueError):
        ThresholdCurve((0.5, 0.2), (0.1, 0.9))


def test_threshold_curve_best_point_is_computed_once(monkeypatch):
    calls = []
    real = postprocess.best_point
    monkeypatch.setattr(postprocess, "best_point", lambda xs, ys: calls.append(1) or real(xs, ys))
    curve = ThresholdCurve((0.0, 0.5, 1.0), (0.25, 0.75, 0.75))
    twin = ThresholdCurve((0.0, 0.5, 1.0), (0.25, 0.75, 0.75))
    before = (repr(curve), hash(curve))
    assert [curve.best_threshold, curve.best_accuracy, curve.best_threshold, curve.best_accuracy] == [0.5, 0.75] * 2
    assert len(calls) == 1
    assert curve == twin and (repr(curve), hash(curve)) == before == (repr(twin), hash(twin))


def test_nms_on_rows_keeps_the_rows_of_the_kept_boxes():
    rng = random.Random(5)
    for n in (0, 1, 7, 40):
        boxes = random_boxes(rng, n)
        rows = box_rows(boxes)
        for thresh in (0.0, 0.3, 0.7, 1.0):
            kept = nms(rows, thresh)
            assert isinstance(kept, np.ndarray) and kept.shape[1:] == (5,)
            assert kept.tolist() == rows[naive_nms(boxes, thresh)].tolist()


def test_default_grid_resolution():
    grid = default_grid(0.001)
    assert len(grid) == 1001
    assert grid[0] == 0.0 and grid[-1] == 1.0
    assert grid[500] == 0.5


def test_default_grid_values_are_exact_fractions():
    grid = default_grid(0.001)
    assert all(grid[i] == i / 1000 for i in range(1001))


@pytest.mark.parametrize("step", [0.3, 0.4, 0.6, 0.003])
def test_default_grid_rejects_steps_not_dividing_one(step):
    with pytest.raises(ValueError, match=str(step)):
        default_grid(step)


@pytest.mark.parametrize("step", [1e-9, 9.99e-7, 5e-324])
def test_default_grid_rejects_steps_finer_than_its_bound(step):
    with pytest.raises(ValueError, match=rf"^grid step {step} gives more than 1000000 steps$"):
        default_grid(step)


def test_default_grid_takes_steps_down_to_its_bound():
    grid = default_grid(1e-6)
    assert len(grid) == 10**6 + 1 and grid[1] == 1e-6 and grid[-1] == 1.0


def detector_fixture():
    """Two images whose count accuracy is 1.0 exactly when the threshold
    falls in (0.4995, 0.5005]; 0.500 is the only grid point inside."""
    gt = Dataset(
        "gt",
        (
            ImageRecord("a", 64, 64, count=CountLabel(1)),
            ImageRecord("b", 64, 64, count=CountLabel(1)),
        ),
    )
    pred = Dataset(
        "pred",
        (
            ImageRecord(
                "a",
                64,
                64,
                boxes=(
                    BoundingBox(0.2, 0.2, 0.1, 0.1, 0.9),
                    BoundingBox(0.8, 0.8, 0.1, 0.1, 0.4995),
                ),
            ),
            ImageRecord("b", 64, 64, boxes=(BoundingBox(0.5, 0.5, 0.1, 0.1, 0.5005),)),
        ),
    )
    return gt, pred


def test_tune_threshold_finds_constructed_optimum():
    gt, pred = detector_fixture()
    curve = tune_threshold(pred, gt, default_grid(0.001), nms_iou=0.7)
    assert curve.best_threshold == 0.5
    assert curve.best_accuracy == 1.0
    assert curve.best_accuracy == accuracy_at_threshold(pred, gt, 0.5)


def test_tune_threshold_matches_direct_evaluation_everywhere():
    gt, pred = detector_fixture()
    grid = default_grid(0.05)
    curve = tune_threshold(pred, gt, grid, nms_iou=0.7)
    direct = [accuracy_at_threshold(pred, gt, t) for t in grid]
    assert list(curve.accuracies) == direct


@pytest.mark.parametrize("seed", [3, 31])
def test_tune_threshold_matches_direct_evaluation_on_crowd_instance(seed):
    # Scores rounded to 0.01 land exactly on grid points; targets include
    # 0, more than the boxes present, and records with no boxes at all.
    rng = random.Random(seed)
    gt_recs, pred_recs = [], []
    for i in range(16):
        boxes = [
            BoundingBox(b.cx, b.cy, b.w, b.h, round(b.score, 2)) if rng.random() < 0.5 else b
            for b in mixed_boxes(rng, 0 if rng.random() < 0.25 else rng.randint(1, 120))
        ]
        target = rng.choice([0, rng.randint(0, len(boxes) + 5)])
        gt_recs.append(ImageRecord(f"r{i}", 64, 64, count=CountLabel(target)))
        pred_recs.append(ImageRecord(f"r{i}", 64, 64, boxes=tuple(boxes)))
    gt, pred = Dataset("gt", tuple(gt_recs)), Dataset("pred", tuple(pred_recs))
    grid = default_grid(0.01)
    curve = tune_threshold(pred, gt, grid, nms_iou=0.5)
    assert list(curve.accuracies) == [accuracy_at_threshold(pred, gt, t, nms_iou=0.5) for t in grid]


def test_tune_threshold_perfect_everywhere_ties_to_smallest():
    gt = Dataset("gt", (ImageRecord("a", 64, 64, count=CountLabel(0)),))
    pred = Dataset("pred", (ImageRecord("a", 64, 64, boxes=()),))
    curve = tune_threshold(pred, gt, [0.1, 0.4, 0.9])
    assert curve.best_threshold == 0.1
    assert curve.best_accuracy == 1.0


def test_tune_threshold_id_mismatch():
    gt = Dataset("gt", (ImageRecord("a", 64, 64, count=CountLabel(0)),))
    pred = Dataset("pred", (ImageRecord("z", 64, 64, boxes=()),))
    with pytest.raises(ValueError, match="align"):
        tune_threshold(pred, gt, [0.5])


def test_tune_threshold_rejects_empty_manifests():
    with pytest.raises(ValueError, match="requires at least one record"):
        tune_threshold(Dataset("pred", ()), Dataset("gt", ()), [0.5])


def test_tune_threshold_requires_boxes_tier():
    gt = Dataset("gt", (ImageRecord("a", 64, 64, count=CountLabel(0)),))
    pred = Dataset("pred", (ImageRecord("a", 64, 64, count=CountLabel(0)),))
    with pytest.raises(ValueError, match="boxes"):
        tune_threshold(pred, gt, [0.5])


def test_tune_threshold_applies_nms_before_sweep():
    # Two stacked boxes collapse to one under NMS, matching gt count 1 at
    # low thresholds.
    gt = Dataset("gt", (ImageRecord("a", 64, 64, count=CountLabel(1)),))
    pred = Dataset(
        "pred",
        (
            ImageRecord(
                "a",
                64,
                64,
                boxes=(
                    BoundingBox(0.5, 0.5, 0.2, 0.2, 0.9),
                    BoundingBox(0.5, 0.5, 0.2, 0.2, 0.8),
                ),
            ),
        ),
    )
    curve = tune_threshold(pred, gt, [0.0, 0.95], nms_iou=0.5)
    assert curve.accuracies == (1.0, 0.0)


def test_count_pairs_from_datasets_aligns_by_id():
    gt = Dataset(
        "gt",
        (ImageRecord("a", 64, 64, count=CountLabel(2)), ImageRecord("b", 64, 64, count=CountLabel(0))),
    )
    pred = Dataset(
        "pred",
        (ImageRecord("b", 64, 64, count=CountLabel(1)), ImageRecord("a", 64, 64, count=CountLabel(2))),
    )
    pairs = count_pairs_from_datasets(gt, pred)
    assert [(p.id, p.gt, p.pred) for p in pairs] == [("a", 2, 2), ("b", 0, 1)]


def test_best_point_takes_the_smallest_x_at_the_highest_accuracy():
    assert best_point((0.1, 0.2, 0.3, 0.4), (0.5, 0.9, 0.2, 0.9)) == (0.2, 0.9)
    assert best_point((0.5,), (0.0,)) == (0.5, 0.0)
    curve = ThresholdCurve((0.0, 0.25, 0.5), (0.75, 0.75, 0.5))
    assert (curve.best_threshold, curve.best_accuracy) == best_point(curve.thresholds, curve.accuracies) == (0.0, 0.75)


@pytest.mark.parametrize("grid", [[], [-0.1, 0.5], [0.5, 1.5], [0.5, float("nan")], [0.5, 0.5]])
def test_tune_threshold_grid_is_checked_by_the_curve(grid):
    gt, pred = detector_fixture()
    with pytest.raises(ValueError, match="thresholds"):
        tune_threshold(pred, gt, grid)


def test_tune_threshold_sorts_the_grid():
    gt, pred = detector_fixture()
    grid = default_grid(0.05)
    assert tune_threshold(pred, gt, grid[::-1]) == tune_threshold(pred, gt, grid)


@pytest.mark.parametrize("iou_thresh", [-0.25, 1.25, float("nan")])
def test_nms_rejects_an_iou_threshold_outside_the_unit_interval(iou_thresh):
    with pytest.raises(ValueError, match=r"^IoU threshold must be in \[0, 1\]"):
        nms(box_rows([make_box()]), iou_thresh)


@pytest.mark.parametrize("step", [0.0, -0.5, 1.5, float("nan")])
def test_default_grid_rejects_a_step_outside_zero_to_one(step):
    with pytest.raises(ValueError, match=r"^grid step must be in \(0, 1\]"):
        default_grid(step)
