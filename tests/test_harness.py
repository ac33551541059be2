"""Fraction ablation, break-even analysis, FPS bench, synthetic scenes."""

import signal
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset
from ircount import harness
from ircount.camloc import binarize, find_components, locate_people
from ircount.corpus import boxes_to_points
from ircount.harness import (
    DEFAULT_FRACTIONS,
    BenchStats,
    FractionCurve,
    ProcessPredictor,
    ablate_fractions,
    bench_fps,
    break_even,
    latency_percentile,
    render_blobs,
    synth_scene,
)
from ircount.metrics import maed
from ircount.postprocess import ThresholdCurve
from oracles import full_frame_blobs


def test_ablate_full_fraction_is_whole_dataset(small_dataset):
    subsets = ablate_fractions(small_dataset, [1.0], seed=0)
    assert len(subsets) == 1
    assert {r.id for r in subsets[0]} == {r.id for r in small_dataset}


def test_ablate_sizes_round_half_away():
    ds = make_dataset(15)
    subsets = ablate_fractions(ds, [0.1, 0.5, 1.0], seed=2)
    assert [len(s) for s in subsets] == [2, 8, 15]  # round(1.5)=2, round(7.5)=8


def test_ablate_default_grid_is_nested(small_dataset):
    subsets = ablate_fractions(small_dataset, DEFAULT_FRACTIONS, seed=5)
    assert len(subsets) == 10
    ids = [{r.id for r in s} for s in subsets]
    for smaller, larger in zip(ids, ids[1:]):
        assert smaller <= larger
    assert len(subsets[-1]) == len(small_dataset)


@given(st.integers(1, 50), st.integers(0, 1000))
@settings(max_examples=40)
def test_ablate_nesting_and_sizes(n, seed):
    ds = make_dataset(n)
    fractions = [0.25, 0.5, 0.75, 1.0]
    subsets = ablate_fractions(ds, fractions, seed)
    previous = set()
    for f, subset in zip(fractions, subsets):
        current = {r.id for r in subset}
        assert previous <= current
        assert len(subset) == int(np.floor(f * n + 0.5))
        previous = current


def test_ablate_rejects_bad_inputs(small_dataset):
    with pytest.raises(ValueError):
        ablate_fractions(small_dataset, [0.5, 0.5], seed=0)
    with pytest.raises(ValueError):
        ablate_fractions(small_dataset, [0.0, 0.5], seed=0)
    with pytest.raises(ValueError):
        ablate_fractions(small_dataset, [], seed=0)
    with pytest.raises(ValueError, match="^cannot ablate an empty dataset$"):
        ablate_fractions(make_dataset(0), [0.5, 1.0], seed=0)


def test_break_even_first_point_attains_target():
    curve = FractionCurve((0.1, 1.0), (0.2, 1.0))
    assert break_even(curve, 0.2) == 0.1


def test_break_even_linear_curve_closed_form():
    curve = FractionCurve(DEFAULT_FRACTIONS, DEFAULT_FRACTIONS)
    assert break_even(curve, 0.16) == pytest.approx(0.16, abs=1e-12)


def test_break_even_unreachable_target():
    curve = FractionCurve((0.1, 1.0), (0.2, 0.6))
    assert break_even(curve, 0.8) is None


def test_break_even_takes_first_crossing_of_bumpy_curve():
    curve = FractionCurve((0.1, 0.2, 0.3, 0.4), (0.0, 0.5, 0.2, 0.9))
    assert break_even(curve, 0.4) == pytest.approx(0.18, abs=1e-12)


@given(st.lists(st.floats(0, 1, allow_nan=False), min_size=2, max_size=8), st.data())
@settings(max_examples=50)
def test_break_even_monotone_in_target(accs, data):
    fractions = tuple((i + 1) / len(accs) for i in range(len(accs)))
    curve = FractionCurve(fractions, tuple(sorted(accs)))
    t1 = data.draw(st.floats(0, 1, allow_nan=False))
    t2 = data.draw(st.floats(0, 1, allow_nan=False))
    lo, hi = min(t1, t2), max(t1, t2)
    f_lo, f_hi = break_even(curve, lo), break_even(curve, hi)
    if f_hi is not None:
        assert f_lo is not None
        assert f_lo <= f_hi + 1e-12


class CountingStub:
    def __init__(self):
        self.calls = 0
        self.seen = []

    def __call__(self, item):
        self.calls += 1
        self.seen.append(item)
        return 0


def test_bench_invocation_counts_and_timed_iters():
    stub = CountingStub()
    stats = bench_fps(stub, warmup=100, iters=50, inputs=["a", "b", "c"])
    assert stub.calls == 150
    assert stats.warmup_iters == 100
    assert stats.timed_iters == 50
    assert len(stats.per_iter) == 50
    assert stats.fps > 0 and stats.mean_latency > 0
    assert stub.seen[:6] == ["a", "b", "c", "a", "b", "c"]


def test_bench_excludes_warmup_from_statistics():
    calls = {"n": 0}

    def slow_then_fast(_):
        calls["n"] += 1
        if calls["n"] <= 20:
            time.sleep(0.005)

    stats = bench_fps(slow_then_fast, warmup=20, iters=200, inputs=[None])
    assert stats.mean_latency < 0.0025


def test_bench_zero_work_stub_finite():
    stats = bench_fps(lambda _: None, warmup=0, iters=100, inputs=[0])
    assert stats.fps > 0
    assert np.isfinite(stats.fps)


def test_bench_sleep_stub_matches_wall_clock():
    # A sleep may overshoot but never undershoot, and the timed calls fit
    # inside the wall time of the whole benchmark.
    start = time.perf_counter()
    stats = bench_fps(lambda _: time.sleep(0.01), warmup=3, iters=40, inputs=[0])
    wall = time.perf_counter() - start
    assert 0.01 <= stats.mean_latency
    assert stats.mean_latency * stats.timed_iters <= wall


def test_bench_failure_reports_iteration():
    def flaky(_):
        if flaky.calls == 7:
            raise RuntimeError("boom")
        flaky.calls += 1

    flaky.calls = 0
    with pytest.raises(RuntimeError, match="timed iteration 2"):
        bench_fps(flaky, warmup=5, iters=10, inputs=[0])


def test_bench_rejects_bad_arguments():
    with pytest.raises(ValueError):
        bench_fps(lambda _: None, warmup=0, iters=0, inputs=[0])
    with pytest.raises(ValueError):
        bench_fps(lambda _: None, warmup=-1, iters=1, inputs=[0])
    with pytest.raises(ValueError):
        bench_fps(lambda _: None, warmup=0, iters=1, inputs=[])


def test_latency_percentile():
    stats = BenchStats(0, 4, 0.25, (0.1, 0.2, 0.3, 0.4))
    assert latency_percentile(stats, 100) == 0.4
    with pytest.raises(ValueError):
        latency_percentile(BenchStats(0, 1, 1.0, None), 50)


ECHO_LOOP = "import sys\nfor line in sys.stdin:\n    print('echo:' + line.strip(), flush=True)\n"


def test_process_predictor_round_trip():
    with ProcessPredictor([sys.executable, "-u", "-c", ECHO_LOOP]) as predictor:
        assert predictor("frame-1") == "echo:frame-1"
        assert predictor("frame-2") == "echo:frame-2"


def test_process_predictor_benches():
    with ProcessPredictor([sys.executable, "-u", "-c", ECHO_LOOP]) as predictor:
        stats = bench_fps(predictor, warmup=2, iters=10, inputs=["x", "y"])
    assert stats.timed_iters == 10
    assert stats.fps > 0


def test_process_predictor_close_reaps_child_that_ignores_eof_and_sigterm(monkeypatch):
    monkeypatch.setattr(harness, "CLOSE_WAIT_S", 0.5)
    monkeypatch.setattr(harness, "TERM_WAIT_S", 0.5)
    stubborn = (
        "import signal, sys, time\n"
        "signal.signal(signal.SIGTERM, signal.SIG_IGN)\n"
        "sys.stdin.readline()\n"
        "print('ready', flush=True)\n"
        "time.sleep(60)\n"
    )
    predictor = ProcessPredictor([sys.executable, "-u", "-c", stubborn])
    assert predictor("go") == "ready"
    predictor.close()
    assert predictor._proc.poll() == -signal.SIGKILL


def test_synth_scene_zero_people():
    scene = synth_scene(0, 32, 32, seed=1)
    assert scene.points.shape == (0, 3) and scene.boxes.shape == (0, 5)
    assert not scene.amap.values.any()


def test_synth_scene_separation_and_determinism():
    a = synth_scene(4, 64, 64, blob_sigma=2.0, min_sep=16.0, seed=12)
    b = synth_scene(4, 64, 64, blob_sigma=2.0, min_sep=16.0, seed=12)
    assert a.points.tolist() == b.points.tolist()
    assert np.array_equal(a.amap.values, b.amap.values)
    px = [(x * 64 - 0.5, y * 64 - 0.5) for x, y, _ in a.points.tolist()]
    for i in range(len(px)):
        for j in range(i + 1, len(px)):
            dist = ((px[i][0] - px[j][0]) ** 2 + (px[i][1] - px[j][1]) ** 2) ** 0.5
            assert dist >= 16.0


def test_synth_scene_boxes_reduce_to_points():
    scene = synth_scene(5, 96, 64, blob_sigma=2.0, min_sep=18.0, seed=3)
    assert boxes_to_points(scene.boxes).tolist() == scene.points.tolist()
    assert (scene.boxes[:, 2:] == (4 * 2.0 / 96, 4 * 2.0 / 64, 1.0)).all()


def test_synth_scene_peak_and_range():
    scene = synth_scene(3, 64, 64, seed=6)
    assert scene.amap.values.max() == 255.0
    assert scene.amap.values.min() >= 0.0


def test_synth_scene_infeasible_placement():
    with pytest.raises(ValueError, match="could not place"):
        synth_scene(12, 20, 20, blob_sigma=2.0, min_sep=30.0, seed=0)


@pytest.mark.parametrize(
    "args,fit",
    [
        ((3000, 640, 512), 1670),  # disk-area bound, min_sep 16
        ((145, 20, 20, 2.0, 0.5), 144),  # lattice bound: 12 x 12 candidate pixels
    ],
)
def test_synth_scene_rejects_counts_above_the_packing_bounds_at_once(monkeypatch, args, fit):
    monkeypatch.setattr(harness.random.Random, "randint", lambda *a: pytest.fail("placement started"))
    with pytest.raises(ValueError, match=f"could not place {args[0]} .* at most {fit} fit"):
        synth_scene(*args)


def test_synth_scene_fills_every_candidate_pixel_at_the_lattice_bound():
    scene = synth_scene(144, 20, 20, blob_sigma=2.0, min_sep=0.5, seed=0)
    px = {(round(x * 20 - 0.5), round(y * 20 - 0.5)) for x, y, _ in scene.points.tolist()}
    assert px == {(x, y) for x in range(4, 16) for y in range(4, 16)}


def test_synth_scene_rejects_tiny_canvas():
    with pytest.raises(ValueError, match="no room"):
        synth_scene(1, 4, 4, blob_sigma=2.0, min_sep=2.0, seed=0)


def test_render_blobs_values_bounded():
    amap = render_blobs(32, 32, [(8, 8), (20, 20)], 2.5)
    assert amap.values.max() == 255.0
    assert amap.values.min() >= 0.0


@pytest.mark.parametrize("sigma", [0.0, -1.0, float("inf"), float("nan")])
def test_render_blobs_rejects_non_finite_or_non_positive_sigma(sigma):
    with pytest.raises(ValueError, match="positive and finite"):
        render_blobs(16, 16, [(8, 8)], sigma)


@pytest.mark.parametrize("sigma", [0.3, 1.0, 2.0, 7.5, 40.0, 200.0])
def test_render_blobs_equals_the_full_frame_formula(sigma):
    # Centers on the border, one pixel inside, just past it and far past it.
    centers = [(0, 0), (63, 47), (1, 46), (62, 1), (32, 24), (-1, 10), (64, 20), (10, 48), (-40, -40), (300, 20),
               (20, -5000)]
    want = full_frame_blobs(64, 48, centers, sigma)
    got = render_blobs(64, 48, centers, sigma).values
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    sigmas = [0.3 + 13.0 * k for k in range(len(centers))]
    assert (render_blobs(64, 48, centers, sigmas).values.view(np.uint64).tolist()
            == full_frame_blobs(64, 48, centers, sigmas).view(np.uint64).tolist())


@pytest.mark.parametrize("center", [(float("inf"), 8), (8, float("nan"))])
def test_render_blobs_rejects_a_non_finite_center(center):
    with pytest.raises(ValueError, match="blob center must be finite"):
        render_blobs(16, 16, [center], 2.0)


def test_end_to_end_synth_locate_maed_loop():
    bound = (1.5 / 64) ** 2
    for seed in range(10):
        n = 1 + seed % 5
        scene = synth_scene(n, 64, 64, blob_sigma=2.0, min_sep=16.0, seed=seed)
        result = locate_people(scene.amap, 27.0, n, seed=seed)
        assert len(result.points) == n
        assert maed([scene.points], [result.points]) < bound


def test_fraction_curve_validation():
    with pytest.raises(ValueError):
        FractionCurve((0.5, 0.5), (0.1, 0.2))
    with pytest.raises(ValueError):
        FractionCurve((0.0, 0.5), (0.1, 0.2))
    with pytest.raises(ValueError):
        FractionCurve((0.5,), (1.5,))


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: FractionCurve((), ()), "fractions and accuracies must be equal-length and non-empty"),
        (lambda: FractionCurve((0.5, 0.5), (0.1, 0.2)), "fractions must be strictly ascending"),
        (lambda: FractionCurve((0.0, 0.5), (0.1, 0.2)), "fractions must lie in (0, 1]"),
        (lambda: FractionCurve((0.5,), (1.5,)), "accuracies must lie in [0, 1]"),
        (lambda: ThresholdCurve((0.1,), ()), "thresholds and accuracies must be equal-length and non-empty"),
        (lambda: ThresholdCurve((0.5, 0.5), (0.1, 0.2)), "thresholds must be strictly ascending"),
        (lambda: ThresholdCurve((-0.1, 0.5), (0.1, 0.2)), "thresholds must lie in [0, 1]"),
        (lambda: ThresholdCurve((0.5,), (1.5,)), "accuracies must lie in [0, 1]"),
    ],
)
def test_curve_validation_messages(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_threshold_curve_may_start_at_zero_where_fraction_curve_may_not():
    assert ThresholdCurve((0.0, 1.0), (0.5, 0.25)).thresholds == (0.0, 1.0)
    with pytest.raises(ValueError):
        FractionCurve((0.0, 1.0), (0.5, 0.25))


@pytest.mark.parametrize(
    "build",
    [
        lambda: FractionCurve((0.5, float("nan"), 1.0), (0.1, 0.2, 0.3)),
        lambda: FractionCurve((float("nan"), 0.5), (0.1, 0.2)),
        lambda: FractionCurve((0.5, 1.0), (0.1, float("nan"))),
        lambda: FractionCurve((True,), (0.5,)),
        lambda: FractionCurve((0.5, 1.0), (0.5, True)),
        lambda: FractionCurve((0.5, 1.0), (0.5, 0.6), label=None),
        lambda: ThresholdCurve((0.0, float("nan")), (0.1, 0.2)),
        lambda: ThresholdCurve((False, 0.5), (0.1, 0.2)),
    ],
    ids=["nan-inside", "nan-first", "nan-accuracy", "bool-fraction", "bool-accuracy", "label-none",
         "nan-threshold", "bool-threshold"],
)
def test_curves_reject_nan_bools_and_non_string_labels(build):
    with pytest.raises(ValueError):
        build()


def test_bench_stats_fps_is_the_reciprocal_of_mean_latency():
    stats = bench_fps(lambda _: None, warmup=0, iters=50, inputs=[0])
    assert stats.fps == 1.0 / stats.mean_latency
    assert BenchStats(0, 4, 0.25).fps == 4.0


def test_bench_per_iter_cap_bounds_the_samples(monkeypatch):
    monkeypatch.setattr(harness, "PER_ITER_CAP", 3)
    stats = bench_fps(lambda _: None, warmup=0, iters=10, inputs=[0])
    assert stats.timed_iters == 10 and len(stats.per_iter) == 3


def test_synth_scene_attempt_budget_is_per_person(monkeypatch):
    # Two centers pass both packing bounds here, but no two of the 12 x 12
    # candidate pixels are 30 px apart.
    monkeypatch.setattr(harness, "MAX_ATTEMPTS_PER_BLOB", 5)
    with pytest.raises(ValueError, match="after 10 attempts"):
        synth_scene(2, 20, 20, blob_sigma=2.0, min_sep=30.0, seed=0)


@pytest.mark.parametrize("target", [-0.25, 1.25, float("nan")])
def test_break_even_rejects_a_target_outside_the_unit_interval(target):
    with pytest.raises(ValueError, match=r"^target accuracy must be in \[0, 1\]"):
        break_even(FractionCurve((0.5, 1.0), (0.25, 0.75)), target)


def test_bench_failure_during_warmup_reports_iteration():
    def flaky(_):
        if flaky.calls == 2:
            raise RuntimeError("boom")
        flaky.calls += 1

    flaky.calls = 0
    with pytest.raises(RuntimeError, match="^predictor failed at warmup iteration 2$") as info:
        bench_fps(flaky, warmup=5, iters=10, inputs=[0])
    assert str(info.value.__cause__) == "boom"


def test_render_blobs_needs_one_sigma_per_center():
    with pytest.raises(ValueError, match="^one sigma per center required$"):
        render_blobs(8, 8, [(2, 2), (5, 5)], [1.0, 1.0, 1.0])


def test_synth_scene_rejects_a_negative_count():
    with pytest.raises(ValueError, match="^n_people must be >= 0, got -1$"):
        synth_scene(-1, 32, 32)
