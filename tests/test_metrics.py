"""Count metrics, per-class breakdown, localization score, decision rules."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ircount import assignment
from ircount.assignment import match_points, matching_objective
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
from oracles import brute_force_match

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


def test_maed_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        maed([[(0.1, 0.1)]], [])


def test_maed_length_mismatch_raises_before_any_distance(monkeypatch):
    def no_distances(dx, dy):
        raise AssertionError("a distance was computed")

    monkeypatch.setattr(assignment, "_hypot", no_distances)
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
