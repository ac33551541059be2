"""Count metrics, per-class breakdown, localization score, decision rules."""

import contextlib
import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ircount import assignment, metrics
from ircount.assignment import hungarian, match_points, matching_objective
from ircount.metrics import (
    CountPair,
    MaedConfig,
    MetricsReport,
    count_metrics,
    decide_count_classification,
    decide_count_regression,
    maed,
    per_class_accuracy,
    render_count_table,
    render_per_class_table,
    report_to_dict,
    round_half_away,
)
from oracles import brute_force_match, exact_maed, per_image_maed

count_pairs = st.lists(
    st.builds(CountPair, st.just("x"), st.integers(0, 13), st.integers(0, 13)),
    min_size=1,
    max_size=60,
)
unit = st.floats(0.0, 1.0, allow_nan=False)
point_sets = st.lists(st.lists(st.tuples(unit, unit), max_size=5), min_size=1, max_size=5)


def pairs_of(*gt_pred):
    return [CountPair(f"i{k}", g, p) for k, (g, p) in enumerate(gt_pred)]


def test_count_metrics_all_correct():
    report = count_metrics(pairs_of((3, 3), (0, 0), (13, 13)))
    assert (report.accuracy, report.mse, report.mae) == (1.0, 0.0, 0.0)
    assert report.n == 3


def test_count_metrics_two_pairs():
    report = count_metrics(pairs_of((2, 3), (2, 2)))
    assert (report.accuracy, report.mse, report.mae) == (0.5, 0.5, 0.5)


def test_count_metrics_empty_rejected():
    with pytest.raises(ValueError):
        count_metrics([])


def test_count_pair_rejects_negative():
    with pytest.raises(ValueError):
        CountPair("x", -1, 0)


@pytest.mark.parametrize("gt, pred", [(1, 1.5), (2, True), ("x", 1), (2.0, 2), (1, None)])
def test_count_pair_rejects_counts_that_are_not_ints(gt, pred):
    with pytest.raises(ValueError, match="counts must be non-negative integers"):
        CountPair("a", gt, pred)


@given(count_pairs)
def test_count_metrics_order_invariant(pairs):
    fwd = count_metrics(pairs)
    rev = count_metrics(list(reversed(pairs)))
    assert fwd == rev


@given(count_pairs)
def test_mae_bounded_by_rms(pairs):
    report = count_metrics(pairs)
    assert report.mae <= math.sqrt(report.mse) + 1e-12


def test_per_class_distech_class_zero_spot():
    pairs = pairs_of(*[(0, 0)] * 17, *[(0, 1)] * 2)
    breakdown = per_class_accuracy(pairs)
    acc, occ = breakdown[0]
    assert occ == 19
    assert round(100 * acc, 2) == 89.47


def test_per_class_single_class_all_correct():
    breakdown = per_class_accuracy(pairs_of((4, 4), (4, 4)))
    assert breakdown == {4: (1.0, 2)}


@given(count_pairs)
def test_per_class_weighted_mean_equals_overall(pairs):
    report = count_metrics(pairs, per_class=True)
    weighted = sum(acc * occ for acc, occ in report.per_class.values())
    assert weighted / report.n == pytest.approx(report.accuracy, abs=1e-12)
    assert sum(occ for _, occ in report.per_class.values()) == report.n


def test_maed_identical_sets_zero():
    sets = [[(0.1, 0.2), (0.5, 0.5)], [(0.9, 0.1)]]
    assert maed(sets, sets) == 0.0


def test_maed_single_pair_squared():
    value = maed([[(0.2, 0.2)]], [[(0.2, 0.5)]])
    assert value == pytest.approx(0.09, abs=1e-12)


def test_maed_single_pair_plain():
    cfg = MaedConfig(squared=False)
    value = maed([[(0.2, 0.2)]], [[(0.2, 0.5)]], cfg)
    assert value == pytest.approx(0.3, abs=1e-12)


def test_maed_two_gt_one_pred_uses_brute_force_oracle():
    gt = [(0.2, 0.2), (0.8, 0.8)]
    pred = [(0.2, 0.3)]
    oracle = brute_force_match(gt, pred)
    d = min(dist for _, _, dist in oracle.pairs)
    expected = (d * d + 1.0) / 2.0
    assert maed([gt], [pred]) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_maed_one_side_empty_contribution_is_penalty(k):
    gt = [[(i / 10, i / 10) for i in range(1, k + 1)]]
    assert maed(gt, [[]]) == 1.0
    assert maed([[]], gt) == 1.0


def test_maed_both_empty_images_contribute_zero():
    value = maed([[], [(0.2, 0.2)]], [[], [(0.2, 0.5)]])
    assert value == pytest.approx(0.09 / 2, abs=1e-12)


def test_maed_gt_card_denominator():
    cfg = MaedConfig(denominator="gt_card")
    value = maed([[(0.2, 0.2), (0.8, 0.8)]], [[(0.2, 0.2)]], cfg)
    assert value == pytest.approx(1.0 / 2.0, abs=1e-12)


@pytest.mark.parametrize("squared", [True, False])
@pytest.mark.parametrize("penalty", [1e15, 1e16], ids=["1e15", "1e16"])
def test_maed_and_pairs_equal_brute_force_at_large_penalties(penalty, squared):
    # A penalty this large once swamped the distances inside the matcher and
    # gave non-optimal pairs; it must now only enter the score.
    cfg = MaedConfig(penalty, squared)
    rng = random.Random(808)
    for _ in range(1000):
        gt = [(rng.random(), rng.random()) for _ in range(rng.randint(0, 6))]
        pred = [(rng.random(), rng.random()) for _ in range(rng.randint(0, 6))]
        slow = brute_force_match(gt, pred, penalty)
        assert set(match_points(gt, pred).pairs) == set(slow.pairs)
        contrib = 0.0
        for _, _, d in slow.pairs:
            contrib += d * d if squared else d
        contrib += penalty * (slow.unmatched_gt + slow.unmatched_pred)
        want = contrib / max(len(gt), len(pred)) if gt or pred else 0.0
        assert maed([gt], [pred], cfg).hex() == want.hex()


# Points on a k/16 grid, so that ties and repeated points are common. Sets
# of 8 or more points tell an in-order sum from numpy's pairwise one.
grid_coord = st.integers(0, 16).map(lambda k: k / 16)
grid_points = st.lists(st.tuples(grid_coord, grid_coord), max_size=10)


def nudged(points, rng):
    """Each point moved by less than half the grid step, staying in [0, 1]."""
    return [(min(x + rng.uniform(0, 1 / 64), 1.0), min(y + rng.uniform(0, 1 / 64), 1.0)) for x, y in points]


@st.composite
def image_sets(draw):
    """One image's (gt, pred) sets: a nudged permutation of gt (settled
    unless gt repeats a point), another square set, a non-square pair or
    empty sides."""
    gt = draw(grid_points)
    kind = draw(st.sampled_from(["permuted", "square", "non-square", "one empty", "both empty"]))
    if kind == "permuted":
        pred = nudged(draw(st.permutations(gt)), draw(st.randoms(use_true_random=False)))
    elif kind == "square":
        pred = draw(st.lists(st.tuples(grid_coord, grid_coord), min_size=len(gt), max_size=len(gt)))
    elif kind == "non-square":
        pred = draw(st.lists(st.tuples(grid_coord, grid_coord), min_size=len(gt) + 1, max_size=len(gt) + 3))
    else:
        pred = [] if kind == "one empty" else gt[:0]
        gt = gt if kind == "one empty" else []
    return (pred, gt) if draw(st.booleans()) else (gt, pred)


configs = st.builds(MaedConfig, st.sampled_from([1.0, 0.3]), st.booleans(), st.sampled_from(["max_card", "gt_card"]))


@given(st.lists(image_sets(), min_size=1, max_size=30), configs, st.sampled_from([1, 20, 100, 1 << 14]))
@settings(max_examples=150)
def test_maed_equals_the_per_image_loop_bit_for_bit(images, cfg, batch_cells):
    gt_sets, pred_sets = [g for g, _ in images], [p for _, p in images]
    with mock.patch.object(assignment, "_BATCH_CELLS", batch_cells):
        got = maed(gt_sets, pred_sets, cfg)
    assert got.hex() == per_image_maed(gt_sets, pred_sets, cfg).hex()


@contextlib.contextmanager
def counted_match_points():
    """Record the (gt, pred) sizes of every image that ``maed`` sends to ``match_points``."""
    calls = []

    def counting(gt, pred, **kwargs):
        calls.append((len(gt), len(pred)))
        return match_points(gt, pred, **kwargs)

    with mock.patch.object(metrics, "match_points", counting):
        yield calls


@pytest.mark.parametrize("cfg", [MaedConfig(1.0, sq, den) for sq in (True, False) for den in ("max_card", "gt_card")])
def test_maed_equals_the_per_image_loop_across_distance_batches(cfg):
    rng = random.Random(20)

    def grid(count):
        return [(rng.randint(0, 16) / 16, rng.randint(0, 16) / 16) for _ in range(count)]

    gt_sets, pred_sets = [], []
    for k in range(500):
        gt = grid(rng.randint(0, 16))
        # odd k: a nudged permutation of gt; k = 2 mod 4: another square set; k = 0 mod 4: any size
        pred = nudged(rng.sample(gt, len(gt)), rng) if k % 2 else grid(len(gt) if k % 4 else rng.randint(0, 16))
        gt_sets.append(gt)
        pred_sets.append(pred)
    assert sum(len(g) * len(p) for g, p in zip(gt_sets, pred_sets)) > 2 * assignment._BATCH_CELLS
    with counted_match_points() as calls:
        got = maed(gt_sets, pred_sets, cfg)
    assert 0 < len(calls) < sum(1 for g, p in zip(gt_sets, pred_sets) if g or p)  # some images settle in bulk
    assert got.hex() == per_image_maed(gt_sets, pred_sets, cfg).hex()
    # A last-bit difference in one image's sum can vanish in the total, so each image is also scored alone.
    for gt, pred in zip(gt_sets, pred_sets):
        assert maed([gt], [pred], cfg).hex() == per_image_maed([gt], [pred], cfg).hex()


def hungarian_pairs(costs):
    return hungarian(costs)[0]


all_configs = [
    MaedConfig(pen, sq, den) for pen in (1.0, 0.25) for sq in (True, False) for den in ("max_card", "gt_card")
]


@pytest.mark.parametrize(
    "gt, pred",
    [
        ([(0.5, 0.5)], [(0.25, 0.5)]),  # 1 x 1
        ([(0.1, 0.1), (0.9, 0.9)], [(0.12, 0.1), (0.5, 0.5), (0.88, 0.9)]),  # wide: gt points are the rows
        ([(0.88, 0.9), (0.5, 0.5), (0.12, 0.1)], [(0.1, 0.1), (0.9, 0.9)]),  # tall: pairs summed in gt order
        ([(0.3, 0.3)], []),
        ([], [(0.3, 0.3), (0.6, 0.6)]),
    ],
)
def test_images_of_every_shape_settle_without_the_solver(gt, pred):
    with counted_match_points() as calls:
        got = [maed([gt], [pred], cfg).hex() for cfg in all_configs]
    assert calls == []
    assert got == [exact_maed([gt], [pred], cfg).hex() for cfg in all_configs]
    _, settled = next(assignment.distance_batches([gt], [pred]))
    assert settled == {0: [d for _, _, d in match_points(gt, pred).pairs]}  # in gt order


@pytest.mark.parametrize(
    "gt, pred",
    [
        ([(0.5, 0.5)], [(0.25, 0.5), (0.75, 0.5)]),  # two nearest points at the same distance
        ([(0.5, 0.5)], [(0.25, 0.5), (0.75 + 2.0**-40, 0.5)]),  # 2**-40 apart, within _TAU
        ([(0.4, 0.5), (0.45, 0.5)], [(0.5, 0.5), (0.9, 0.9)]),  # both rows nearest to one column
        ([(0.4, 0.5), (0.4, 0.5)], [(0.5, 0.5), (0.9, 0.9)]),  # a repeated point
    ],
)
def test_images_whose_nearest_points_tie_or_clash_go_to_match_points(gt, pred):
    for a, b in ((gt, pred), (pred, gt)):
        with counted_match_points() as calls:
            got = [maed([a], [b], cfg).hex() for cfg in all_configs]
        assert calls == [(len(a), len(b))] * len(all_configs)
        assert got == [exact_maed([a], [b], cfg, hungarian_pairs).hex() for cfg in all_configs]


def grid_image_sets(k):
    coord = st.integers(0, k).map(lambda i: i / k)
    points = st.lists(st.tuples(coord, coord), max_size=6)
    return st.lists(st.tuples(points, points), min_size=1, max_size=5)


@given(st.sampled_from([4, 16]).flatmap(grid_image_sets), st.booleans())
@settings(max_examples=300)
def test_maed_equals_the_math_hypot_oracle_on_tie_heavy_grids(images, squared):
    # On k/4 and k/16 grids exact ties and repeated points are common. Every image
    # must score as the solver scores the math.hypot matrix, and its matching must
    # be optimal by the pure-Python Hungarian method.
    cfg = MaedConfig(squared=squared)
    gt_sets, pred_sets = [g for g, _ in images], [p for _, p in images]
    assert maed(gt_sets, pred_sets, cfg).hex() == exact_maed(gt_sets, pred_sets, cfg, hungarian_pairs).hex()
    plain = MaedConfig(squared=False)
    for gt, pred in images:
        assert maed([gt], [pred], plain) == pytest.approx(exact_maed([gt], [pred], plain), abs=1e-12)


def test_maed_holds_one_distance_batch_at_a_time():
    # 200 images of 100 points a side: 2M distances, 16 MB if held at once.
    rng = np.random.default_rng(200)
    gt_sets = [rng.random((100, 3)) for _ in range(200)]
    pred_sets = [g[rng.permutation(100)] if k % 2 else rng.random((100, 3)) for k, g in enumerate(gt_sets)]
    tracemalloc.start()
    try:
        maed(gt_sets, pred_sets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_maed_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        maed([[(0.1, 0.1)]], [])


def test_maed_length_mismatch_raises_before_any_distance(monkeypatch):
    def no_distances(xy):
        raise AssertionError("a distance was computed")

    monkeypatch.setattr(assignment, "_batch_distances", no_distances)
    sets = [[(0.1, 0.1)] * 10] * 3
    with pytest.raises(ValueError, match=r"^gt and prediction lists differ in length: 3 vs 2$"):
        maed(sets, sets[:2])


def lone_error(gt, pred):
    with pytest.raises(ValueError) as info:
        match_points(gt, pred)
    return str(info.value)


# (image, side, point): bad points planted in a run of images that spans
# several distance batches; each case names what maed must report.
@pytest.mark.parametrize(
    "bad, reported",
    [
        ([(57, "pred", (0.5, 1.25))], 57),
        ([(57, "gt", (0.5, 1.25)), (57, "pred", (-0.5, 0.0))], 57),  # predictions first
        ([(40, "gt", (math.nan, 0.5)), (41, "pred", (2.0, 0.5))], 40),  # same batch, earlier image
        ([(3, "gt", (0.5, -0.0625)), (58, "pred", (2.0, 0.5))], 3),  # earlier batch
        ([(58, "gt", ("x", 0.5)), (57, "gt", (1.5, 0.5))], 57),  # a range error before an unreadable point
        ([(57, "gt", ("x", 0.5)), (58, "gt", (1.5, 0.5))], 57),
    ],
)
def test_maed_errors_name_the_first_bad_image_across_batches(bad, reported):
    rng = random.Random(60)
    gt_sets = [[(rng.random(), rng.random()) for _ in range(rng.randint(0, 60))] + [(0.5, 0.5)] for _ in range(60)]
    pred_sets = [[(rng.random(), rng.random()) for _ in range(rng.randint(0, 60))] + [(0.5, 0.5)] for _ in range(60)]
    assert sum(len(g) * len(p) for g, p in zip(gt_sets, pred_sets)) > 2 * assignment._BATCH_CELLS
    for image, side, point in bad:
        (gt_sets if side == "gt" else pred_sets)[image][-1] = point
    want = lone_error(gt_sets[reported], pred_sets[reported])
    with pytest.raises(ValueError) as info:
        maed(gt_sets, pred_sets)
    assert str(info.value) == want


@given(point_sets, st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_maed_invariant_under_per_image_permutation(sets, rng):
    shuffled = []
    for pts in sets:
        pts = list(pts)
        rng.shuffle(pts)
        shuffled.append(pts)
    assert maed(sets, shuffled) == pytest.approx(0.0, abs=1e-12)


@given(point_sets, point_sets)
@settings(max_examples=60)
def test_maed_non_negative(a, b):
    n = min(len(a), len(b))
    assert maed(a[:n], b[:n]) >= 0.0


@pytest.mark.parametrize(
    "raw,expected",
    [(2.4, 2), (2.5, 3), (-0.3, 0), (0.0, 0), (0.5, 1), (19.5, 20), (7.49, 7)],
)
def test_decide_count_regression(raw, expected):
    assert decide_count_regression(raw) == expected


def test_decide_count_regression_half_epsilon_edge():
    assert decide_count_regression(0.49999999999999994) == 0


@pytest.mark.parametrize("value, expected", [(-0.5, -1), (-2.5, -3), (-2.4, -2), (-0.49999999999999994, 0)])
def test_round_half_away_on_negative_values(value, expected):
    assert round_half_away(value) == expected


@pytest.mark.parametrize("raw", [math.nan, math.inf, -math.inf])
def test_decide_count_regression_rejects_nonfinite(raw):
    with pytest.raises(ValueError):
        decide_count_regression(raw)


@given(st.floats(0, 1e6, allow_nan=False))
def test_decide_count_regression_within_half(raw):
    rounded = decide_count_regression(raw)
    assert abs(rounded - raw) <= 0.5


def test_decide_count_classification_one_hot():
    scores = [0.0] * 21
    scores[4] = 1.0
    assert decide_count_classification(scores) == 4


def test_decide_count_classification_uniform_ties_to_zero():
    assert decide_count_classification([0.3] * 21) == 0


def test_decide_count_classification_empty():
    with pytest.raises(ValueError):
        decide_count_classification([])


@pytest.mark.parametrize("kind", [list, np.array])
def test_decide_count_classification_takes_lists_and_arrays(kind):
    assert decide_count_classification(kind([0.0])) == 0
    assert decide_count_classification(kind([0.2, 0.7])) == 1
    assert decide_count_classification(kind([0.4, 0.9, 0.9])) == 1
    with pytest.raises(ValueError, match="^classification scores must be non-empty and finite"):
        decide_count_classification(kind([]))


@pytest.mark.parametrize("scores", [[math.nan, 0.9], [0.1, math.nan, 0.9], [0.2, math.inf], [-math.inf, 0.0]])
def test_decide_count_classification_rejects_non_finite_scores(scores):
    with pytest.raises(ValueError, match="finite"):
        decide_count_classification(scores)


@given(st.lists(st.integers(-100, 100), min_size=1, max_size=21),
       st.floats(0.25, 50, allow_nan=False), st.floats(-10, 10, allow_nan=False))
def test_decide_count_classification_affine_invariant(scores, scale, shift):
    # Integer-valued scores keep distinct entries distinct after the
    # transform; exact ties stay exact ties.
    base = decide_count_classification([float(s) for s in scores])
    moved = decide_count_classification([s * scale + shift for s in scores])
    assert base == moved


def test_render_count_table_markdown_header():
    report = count_metrics(pairs_of((1, 1), (2, 3)))
    table = render_count_table([("demo", report)], "markdown")
    assert table.splitlines()[0] == "| Model | Acc↑ | MSE↓ | MAE↓ |"
    assert "demo" in table


def test_render_per_class_table_csv():
    report = count_metrics(pairs_of((1, 1), (1, 0), (2, 2)), per_class=True)
    table = render_per_class_table(report, "csv")
    assert table.splitlines()[0] == "Count,Occurrences,Acc↑"
    assert "1,2,50.00 %" in table


def test_report_to_dict_round_shape():
    report = count_metrics(pairs_of((1, 1), (2, 3)), per_class=True)
    doc = report_to_dict(report, model="m")
    assert doc["model"] == "m"
    assert set(doc["per_class"]) == {"1", "2"}


def test_maed_config_validation():
    with pytest.raises(ValueError):
        MaedConfig(penalty=0.0)
    with pytest.raises(ValueError):
        MaedConfig(denominator="mean")


@pytest.mark.parametrize("penalty", [0.0, math.inf, -math.inf, math.nan, -1.0])
def test_maed_config_rejects_non_finite_penalty(penalty):
    with pytest.raises(ValueError, match="penalty must be positive and finite"):
        MaedConfig(penalty=penalty)


def test_maed_raises_when_the_score_overflows():
    cfg = MaedConfig(penalty=1e308)
    assert maed([[(0.5, 0.5)]], [[]], cfg) == 1e308
    with pytest.raises(ValueError, match="penalty 1e\\+308"):
        maed([[(0.1, 0.1), (0.2, 0.2)]], [[]], cfg)


@pytest.mark.parametrize(
    "fields",
    [
        {"accuracy": math.nan},
        {"accuracy": 1.5},
        {"accuracy": True},
        {"accuracy": "0.5"},
        {"mse": -1},
        {"mse": math.inf},
        {"mae": math.nan},
        {"mae": 10**400},
        {"n": 0},
        {"n": 2.0},
        {"n": True},
        {"per_class": {1: (7, 1)}},
        {"per_class": {1: (1.0, "q")}},
        {"per_class": {1: (1.0, -1)}},
        {"per_class": {-1: (1.0, 1)}},
        {"per_class": {True: (1.0, 1)}},
        {"per_class": {1: (False, 1)}},
    ],
)
def test_metrics_report_rejects_values_no_count_can_give(fields):
    args = {"accuracy": 0.5, "mse": 0.5, "mae": 0.5, "n": 2, "per_class": None, **fields}
    with pytest.raises(ValueError):
        MetricsReport(**args)


def test_per_class_accuracy_needs_a_pair():
    with pytest.raises(ValueError, match="^per_class_accuracy requires at least one pair$"):
        per_class_accuracy([])


def test_tables_reject_an_unknown_format():
    report = count_metrics(pairs_of((1, 1), (2, 3)), per_class=True)
    for render in (lambda: render_count_table([("demo", report)], "html"),
                   lambda: render_per_class_table(report, "html")):
        with pytest.raises(ValueError, match="^unknown table format 'html'$"):
            render()


def test_per_class_table_needs_a_per_class_breakdown():
    with pytest.raises(ValueError, match="^report has no per-class breakdown$"):
        render_per_class_table(count_metrics(pairs_of((1, 1), (2, 3))))
