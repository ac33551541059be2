"""Acceptance gates: one test per criterion, one PASS/FAIL line each.

Run ``pytest tests/test_acceptance.py -s`` to see the verdict lines live.
Criterion 3a is expected to fail: the reference per-class table it checks
is internally inconsistent with its own reported aggregate (see the
assertion message), and the gate states the published numbers faithfully
rather than adjusting them to pass.
"""

import math
import random
import time

import numpy as np
import pytest

from ircount.assignment import match_points, matching_objective
from ircount.camloc import binarize, find_components, locate_people
from ircount.corpus import CountLabel, Dataset, ImageRecord, load_manifest, save_manifest, split_dataset
from ircount.harness import FractionCurve, bench_fps, break_even, render_blobs, synth_scene
from ircount.metrics import CountPair, count_metrics, maed, round_half_away
from ircount.postprocess import (
    BoundingBox,
    default_grid,
    iou,
    nms,
    tune_threshold,
)
from ircount import Grid
from ircount.preprocess import percentile, winsorize
from oracles import accuracy_at_threshold, brute_force_match
from oracles import naive_nms as _naive_nms_indices


def _verdict(name: str, ok: bool, detail: str = "") -> bool:
    line = f"[{name}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" — {detail}"
    print(line)
    return ok


# -- 1 -----------------------------------------------------------------------


def test_c01_matching_agrees_with_brute_force_bit_exactly():
    rng = random.Random(1001)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        n, m = rng.randint(0, 7), rng.randint(0, 7)
        gt = [(rng.random(), rng.random()) for _ in range(n)]
        pred = [(rng.random(), rng.random()) for _ in range(m)]
        fast = matching_objective(match_points(gt, pred), 1.0)
        slow = matching_objective(brute_force_match(gt, pred, 1.0), 1.0)
        if fast != slow:
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 60.0
    assert _verdict(
        "C1 matching-optimality",
        ok,
        f"{1000 - mismatches}/1000 instances bit-equal, {elapsed:.1f}s",
    )


# -- 2 -----------------------------------------------------------------------


def test_c02_localization_score_ground_truths():
    sets = [[(0.15, 0.25), (0.5, 0.5), (0.9, 0.1)], [(0.0, 0.0)]]
    identical = maed(sets, sets)
    single = maed([[(0.2, 0.2)]], [[(0.2, 0.5)]])
    one_sided = [maed([[(i / 10, i / 10) for i in range(1, k + 1)]], [[]]) for k in (1, 3, 5)]
    ok = (
        identical == 0.0
        and abs(single - 0.09) <= 1e-12
        and all(v == 1.0 for v in one_sided)
    )
    assert _verdict(
        "C2 maed-ground-truths",
        ok,
        f"identical={identical}, single-pair={single!r}, one-sided={one_sided}",
    )


# -- 3 -----------------------------------------------------------------------

# Reference figures for one image-level counting model: per-class count
# accuracy (percent) over ground-truth counts 0..13, the occurrence count
# of each class in the same evaluation, and the overall accuracy reported
# for that identical run.
REFERENCE_CLASS_ACCURACY = [
    100.00, 93.56, 85.15, 75.70, 71.15, 69.23, 52.03,
    56.25, 38.24, 28.57, 25.00, 0.00, 100.00, 100.00,
]
REFERENCE_OCCURRENCES = [1, 1203, 990, 602, 333, 171, 81, 45, 24, 9, 3, 2, 1, 1]
REFERENCE_OVERALL_ACCURACY = 0.8013


def reference_fixture_pairs() -> list[CountPair]:
    """Integer reconstruction of the reference table: per class, the
    nearest integer number of correct predictions; misses predict one off."""
    pairs = []
    for cls, (acc, occ) in enumerate(zip(REFERENCE_CLASS_ACCURACY, REFERENCE_OCCURRENCES)):
        correct = round_half_away(acc / 100.0 * occ)
        for k in range(occ):
            pred = cls if k < correct else cls + 1
            pairs.append(CountPair(f"c{cls}-{k}", cls, pred))
    return pairs


def test_c03a_reference_class_table_vs_reported_aggregate():
    pairs = reference_fixture_pairs()
    report = count_metrics(pairs, per_class=True)
    gap = abs(report.accuracy - REFERENCE_OVERALL_ACCURACY)
    ok = gap <= 0.005
    assert _verdict(
        "C3a class-table-consistency",
        ok,
        f"reconstructed aggregate {100 * report.accuracy:.2f}% vs reported "
        f"{100 * REFERENCE_OVERALL_ACCURACY:.2f}% (gap {100 * gap:.2f}pp, tolerance 0.50pp); "
        "the reference table is internally inconsistent with its reported aggregate, "
        "so this gate records the discrepancy instead of passing",
    )


def test_c03b_class_zero_spot_check():
    pairs = [CountPair(f"z{k}", 0, 0 if k < 17 else 1) for k in range(19)]
    report = count_metrics(pairs, per_class=True)
    acc, occ = report.per_class[0]
    ok = occ == 19 and round(100 * acc, 2) == 89.47
    assert _verdict("C3b class-zero-spot-check", ok, f"17/19 -> {100 * acc:.2f}% at 19 occurrences")


# -- 4 -----------------------------------------------------------------------


def test_c04_split_sizes_deterministic_disjoint_exhaustive(tmp_path):
    records = tuple(ImageRecord(f"r{i:05d}", 64, 48, count=CountLabel(i % 14)) for i in range(15488))
    path = tmp_path / "large.json"
    save_manifest(Dataset("large", records), path)
    ds = load_manifest(path)
    first = split_dataset(ds, 12025, seed=11)
    second = split_dataset(ds, 12025, seed=11)
    train_ids = [r.id for r in first[0]]
    test_ids = [r.id for r in first[1]]
    ok = (
        len(ds) == 15488
        and (len(first[0]), len(first[1])) == (12025, 3463)
        and train_ids == [r.id for r in second[0]]
        and test_ids == [r.id for r in second[1]]
        and set(train_ids).isdisjoint(test_ids)
        and set(train_ids) | set(test_ids) == {r.id for r in ds}
    )
    assert _verdict(
        "C4 split-sizes",
        ok,
        f"loaded {len(ds)} records, split ({len(first[0])}, {len(first[1])}), deterministic per seed",
    )


# -- 5 -----------------------------------------------------------------------


def _place_centers(rng: random.Random, n: int, min_sep: float = 16.0, margin: int = 7) -> list[tuple[int, int]]:
    # Feasible up to ~8 centers in this geometry; the cap guards the loop.
    centers: list[tuple[int, int]] = []
    for _ in range(100_000):
        if len(centers) == n:
            break
        cand = (rng.randint(margin, 63 - margin), rng.randint(margin, 63 - margin))
        if all(math.hypot(cand[0] - cx, cand[1] - cy) >= min_sep for cx, cy in centers):
            centers.append(cand)
    else:
        raise AssertionError(f"could not place {n} centers")
    return centers


def _points_match_centers(points, centers_px, tol_px=1.5) -> bool:
    planted = [((cx + 0.5) / 64, (cy + 0.5) / 64) for cx, cy in centers_px]
    result = match_points(planted, list(points))
    if result.unmatched_gt or result.unmatched_pred:
        return False
    return all(d <= tol_px / 64 for _, _, d in result.pairs)


def test_c05_locate_protocol_on_synthetic_scenes():
    start = time.perf_counter()
    failures = []
    for i in range(200):
        case = i % 3
        rng = random.Random(5000 + i)
        if case == 0:  # matched counts: centroids recover every center
            n = 1 + (i // 3) % 8
            scene = synth_scene(n, 64, 64, blob_sigma=2.0, min_sep=16.0, seed=5000 + i)
            result = locate_people(scene.amap, 27.0, n, seed=i)
            centers = [(round(p.cx * 64 - 0.5), round(p.cy * 64 - 0.5)) for p in scene.points]
            if result.branch != "exact" or not _points_match_centers(result.points, centers):
                failures.append((i, "exact", result.branch))
        elif case == 1:  # extra small blobs: the largest areas win
            n = 1 + (i // 3) % 6  # eight total centers is the packing limit here
            centers = _place_centers(rng, n + 2)
            sigmas = [2.0] * n + [0.8] * 2
            amap = render_blobs(64, 64, centers, sigmas)
            result = locate_people(amap, 27.0, n, seed=i)
            if result.branch != "largest" or not _points_match_centers(result.points, centers[:n]):
                failures.append((i, "largest", result.branch))
        else:  # one merged region: exact count, all points inside it
            num = 2 + (i // 3) % 7
            center = _place_centers(rng, 1)[0]
            amap = render_blobs(64, 64, [center], 3.0)
            result = locate_people(amap, 27.0, num, seed=i)
            comps = find_components(binarize(amap, 27.0))
            member = set().union(*(c.pixels for c in comps))
            inside = all((int(p.cx * 64), int(p.cy * 64)) in member for p in result.points)
            if result.branch != "split" or len(result.points) != num or not inside:
                failures.append((i, "split", result.branch))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30.0
    assert _verdict(
        "C5 locate-from-map",
        ok,
        f"200 scenes across three regimes, {elapsed:.1f}s" + (f", failures={failures[:3]}" if failures else ""),
    )


# -- 6 -----------------------------------------------------------------------


def test_c06_threshold_tuner_finds_constructed_optimum():
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
                "a", 64, 64,
                boxes=(BoundingBox(0.2, 0.2, 0.1, 0.1, 0.9), BoundingBox(0.8, 0.8, 0.1, 0.1, 0.4995)),
            ),
            ImageRecord("b", 64, 64, boxes=(BoundingBox(0.5, 0.5, 0.1, 0.1, 0.5005),)),
        ),
    )
    grid = default_grid(0.001)
    curve = tune_threshold(pred, gt, grid, nms_iou=0.7)
    direct = accuracy_at_threshold(pred, gt, 0.5, nms_iou=0.7)
    exhaustive_best = max(accuracy_at_threshold(pred, gt, t, nms_iou=0.7) for t in grid)
    ok = curve.best_threshold == 0.5 and curve.best_accuracy == direct == exhaustive_best
    assert _verdict(
        "C6 threshold-tuner",
        ok,
        f"best_threshold={curve.best_threshold}, best_accuracy={curve.best_accuracy} (direct {direct})",
    )


# -- 7 -----------------------------------------------------------------------


def test_c07_iou_hand_cases_and_nms_oracle():
    same = BoundingBox(0.5, 0.5, 0.4, 0.2)
    apart = BoundingBox(0.1, 0.1, 0.05, 0.05)
    far = BoundingBox(0.9, 0.9, 0.05, 0.05)
    a = BoundingBox(0.5, 0.5, 1.0, 1.0)
    b = BoundingBox(1.0, 1.0, 1.0, 1.0)
    hand_ok = (
        abs(iou(same, same) - 1.0) <= 1e-12
        and abs(iou(apart, far)) <= 1e-12
        and abs(iou(a, b) - 1.0 / 7.0) <= 1e-12
    )
    rng = random.Random(707)
    nms_ok = True
    for _ in range(1000):
        boxes = [
            BoundingBox(
                rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8),
                rng.uniform(0.05, 0.35), rng.uniform(0.05, 0.35), rng.random(),
            )
            for _ in range(10)
        ]
        thresh = rng.random()
        if nms(boxes, thresh) != [boxes[i] for i in _naive_nms_indices(boxes, thresh)]:
            nms_ok = False
            break
    ok = hand_ok and nms_ok
    assert _verdict(
        "C7 iou-and-nms",
        ok,
        f"hand cases at 1e-12: {hand_ok}; 1000 random 10-box instances match the naive oracle: {nms_ok}",
    )


# -- 8 -----------------------------------------------------------------------


def _oracle_percentile(values, q):
    s = sorted(float(v) for v in values)
    if len(s) == 1:
        return s[0]
    pos = q / 100.0 * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (pos - lo) * (s[hi] - s[lo])


def test_c08_winsorization_properties_and_percentile_oracle():
    rng = np.random.default_rng(808)
    idempotent = monotone = contained = oracle_ok = True
    for _ in range(1000):
        h = int(rng.integers(2, 13))
        w = int(rng.integers(2, 13))
        values = rng.normal(loc=rng.uniform(-50, 50), scale=rng.uniform(0.1, 100), size=(h, w))
        frame = Grid(w, h, values)
        once = winsorize(frame, 5, 95)
        twice = winsorize(once, 5, 95)
        if not np.array_equal(once.values, twice.values):
            idempotent = False
        flat_in = frame.values.ravel()
        flat_out = once.values.ravel()
        order = np.argsort(flat_in, kind="stable")
        if not np.all(np.diff(flat_out[order]) >= 0):
            monotone = False
        p5, p95 = _oracle_percentile(flat_in, 5), _oracle_percentile(flat_in, 95)
        if flat_out.min() < p5 - 1e-9 or flat_out.max() > p95 + 1e-9:
            contained = False
        for q in (5.0, 95.0):
            expect = _oracle_percentile(flat_in, q)
            if abs(percentile(flat_in, q) - expect) > 1e-12 * max(1.0, abs(expect)):
                oracle_ok = False
    ok = idempotent and monotone and contained and oracle_ok
    assert _verdict(
        "C8 winsorization",
        ok,
        f"idempotent={idempotent}, monotone={monotone}, contained={contained}, "
        f"percentiles match sort-and-interpolate oracle at 1e-12: {oracle_ok}",
    )


# -- 9 -----------------------------------------------------------------------


def test_c09_bench_protocol():
    calls = {"n": 0}

    def counting_stub(_):
        calls["n"] += 1

    stats = bench_fps(counting_stub, warmup=100, iters=1000, inputs=["x"])
    counts_ok = calls["n"] == 1100 and stats.timed_iters == 1000 and len(stats.per_iter) == 1000

    phase = {"n": 0}

    def slow_warmup_stub(_):
        phase["n"] += 1
        if phase["n"] <= 100:
            time.sleep(0.010)

    warm_stats = bench_fps(slow_warmup_stub, warmup=100, iters=1000, inputs=["x"])
    warmup_excluded = warm_stats.mean_latency < 0.005

    sleep_stats = bench_fps(lambda _: time.sleep(0.010), warmup=100, iters=1000, inputs=["x"])
    fps_ok = abs(sleep_stats.fps - 100.0) <= 10.0

    ok = counts_ok and warmup_excluded and fps_ok
    assert _verdict(
        "C9 bench-protocol",
        ok,
        f"invocations 1100 ({counts_ok}), warmup excluded from stats ({warmup_excluded}), "
        f"10ms stub -> {sleep_stats.fps:.1f} fps (within 10% of 100: {fps_ok})",
    )


# -- 10 ----------------------------------------------------------------------


def test_c10_break_even_on_linear_curve():
    fr = tuple(round(0.1 * k, 1) for k in range(1, 11))
    curve = FractionCurve(fr, fr, label="linear")
    at_target = break_even(curve, 0.16)
    beyond = break_even(curve, 1.0 + 0.0)  # max accuracy is 1.0: reachable
    unreachable = break_even(FractionCurve(fr, tuple(a * 0.9 for a in fr)), 0.95)
    ok = (
        at_target is not None
        and abs(at_target - 0.16) <= 1e-12
        and beyond == 1.0
        and unreachable is None
    )
    assert _verdict(
        "C10 break-even",
        ok,
        f"linear curve at 0.16 -> {at_target}; unreachable target -> {unreachable}",
    )
