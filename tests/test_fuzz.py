"""Fuzzed inputs through the CLI: every run ends in exit 0 or 1, and every
exit-1 message names the input file.

Inputs are arbitrary bytes, arbitrary JSON values, and JSON or grid text
shaped like the real formats so that the checks past the outer layer run.
The scoring and sampling commands are fuzzed differentially: valid inputs
on a dyadic grid, where ties are common, must give what a direct
computation gives, or keep the invariants that define the command.
"""

import contextlib
import io
import json
import math
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ircount.cli import run
from ircount.corpus import load_manifest
from oracles import accuracy_at_threshold

FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)
numbers = st.one_of(
    st.floats(), st.integers(-5, 300), st.integers(), st.booleans(), st.none(), st.text(max_size=4)
)


def near(plausible):
    return st.one_of(plausible, json_values)


entries = st.lists(numbers, max_size=6)
records = st.fixed_dictionaries(
    {},
    optional={
        "id": near(st.text(max_size=3)),
        "width": near(st.integers(-1, 10**400)),
        "height": near(st.integers(-1, 640)),
        "boxes": near(st.lists(entries, max_size=4)),
        "points": near(st.lists(entries, max_size=4)),
        "count": near(st.integers(-2, 25)),
        "frame_path": near(st.text(max_size=4)),
    },
)
manifests = st.fixed_dictionaries(
    {"records": near(st.lists(records, max_size=4))},
    optional={"name": near(st.text(max_size=4)), "coords": near(st.sampled_from(["normalized", "pixel"]))},
)
results = near(
    st.lists(
        st.fixed_dictionaries(
            {},
            optional={
                "model": json_values,
                "accuracy": numbers,
                "mse": numbers,
                "mae": numbers,
                "n": numbers,
                "per_class": near(
                    st.dictionaries(
                        st.integers(0, 20).map(str) | st.text(max_size=4),
                        near(st.fixed_dictionaries({"accuracy": numbers, "occurrences": numbers})),
                        max_size=3,
                    )
                ),
            },
        ),
        max_size=3,
    )
)


def json_bytes(strategy):
    return st.one_of(
        st.binary(max_size=64),
        json_values.map(lambda v: json.dumps(v).encode()),
        strategy.map(lambda v: json.dumps(v).encode()),
    )


grid_tokens = st.one_of(
    st.floats().map(repr), st.integers(-5, 300).map(str), st.text(alphabet="0123456789.e+-naifx", max_size=5)
)


@st.composite
def grid_text(draw, tag):
    header = draw(st.sampled_from([f"{tag} v1", "CAM v1", "FRAME v1", tag, ""]))
    width, height = draw(st.integers(-1, 4)), draw(st.integers(-1, 4))
    dims = draw(st.one_of(st.just(f"{width} {height}"), st.text(max_size=5)))
    size = max(width, 0) * max(height, 0) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    tokens = draw(st.lists(grid_tokens, min_size=max(size, 0), max_size=max(size, 0)))
    return "\n".join([header, dims, " ".join(tokens)]).encode("utf-8")


def grid_bytes(tag):
    return st.one_of(st.binary(max_size=64), grid_text(tag))


def run_quietly(argv):
    """Run the CLI with its output captured: (exit code, stdout, stderr)."""
    err, out = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        code = run([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


def run_on(payload, suffix, argv_of):
    """Write payload to a fresh input file, run the CLI on it, and check the outcome."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"input{suffix}"
        path.write_bytes(payload)
        code, _, err = run_quietly(argv_of(str(path), str(Path(tmp) / f"out{suffix}")))
    assert code in (0, 1), err
    if code == 1:
        assert str(path) in err, err


@FUZZ
@given(json_bytes(manifests), st.sampled_from(["points", "count"]))
def test_fuzz_convert(payload, to):
    run_on(payload, ".json", lambda src, out: ["convert", "--in", src, "--to", to, "--out", out])


@FUZZ
@given(json_bytes(results), st.sampled_from(["json", "markdown", "csv"]))
def test_fuzz_report(payload, fmt):
    run_on(payload, ".json", lambda src, out: ["report", "--in", src, "--format", fmt, "--out", out])


@FUZZ
@given(grid_bytes("CAM"), st.integers(0, 5), st.sampled_from(["255", "1"]))
def test_fuzz_locate_cam(payload, count, scale):
    run_on(
        payload,
        ".cam",
        lambda src, out: ["locate-cam", "--map", src, "--count", str(count), "--map-scale", scale, "--out", out],
    )


@FUZZ
@given(grid_bytes("FRAME"))
def test_fuzz_winsorize(payload):
    run_on(payload, ".frame", lambda src, out: ["winsorize", src, out])


# Dyadic values are exact in binary, so equal scores, scores on grid
# thresholds and IoUs on the NMS threshold are exact ties.
unit16 = st.integers(0, 16).map(lambda k: k / 16)
box_rows = st.lists(
    st.tuples(unit16, unit16, st.integers(1, 8).map(lambda k: k / 16), st.integers(1, 8).map(lambda k: k / 16),
              st.integers(0, 8).map(lambda k: k / 8)).map(list),
    max_size=6,
)
point_rows = st.lists(st.tuples(unit16, unit16, st.just(1.0)).map(list), max_size=6)
# Entries that load_manifest rejects, so the run must exit 1 naming the file.
corruptions = st.sampled_from([
    {"count": -1}, {"count": 21}, {"count": True}, {"width": 0}, {"id": ""},
    {"boxes": [[0.5, 0.5, 0.0, 0.25, 0.5]]}, {"boxes": [[0.5, 0.5, 0.25]]}, {"points": [[1.5, 0.5, 1.0]]},
])


@st.composite
def tiers(draw, boxes_only=False):
    """One record's annotation: boxes, points and a count in any valid mix;
    boxes always when ``boxes_only``, and then no points."""
    out = {"boxes": draw(box_rows)} if boxes_only or draw(st.booleans()) else {}
    if not boxes_only and draw(st.booleans()):
        out["points"] = draw(point_rows)
    sizes = {len(rows) for rows in out.values()}
    if not out or (len(sizes) == 1 and draw(st.booleans())):
        out["count"] = sizes.pop() if sizes else draw(st.integers(0, 6))
    return out


@st.composite
def manifest_pairs(draw, pred_boxes_only=False):
    """Aligned gt and pred manifests, the pred records in another order;
    now and then one file carries a record that does not load."""
    n = draw(st.integers(1, 4))
    gt = [{"id": f"r{i}", "width": 64, "height": 64, **draw(tiers())} for i in range(n)]
    pred = [{"id": f"r{i}", "width": 64, "height": 64, **draw(tiers(pred_boxes_only))} for i in range(n)]
    docs = {"gt": {"name": "gt", "records": gt}, "pred": {"name": "pred", "records": draw(st.permutations(pred))}}
    bad = draw(st.sampled_from([None, None, None, "gt", "pred"]))
    if bad:
        records = docs[bad]["records"]
        records[draw(st.integers(0, n - 1))].update(draw(corruptions))
    return docs, bad


def run_pair(docs, bad, argv_of):
    """Run the CLI on the two manifests. A run with a corrupted file must
    exit 1 naming it; any other run must exit 0, and its outcome is given
    to the caller as (paths, parsed output)."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp) / f"{name}.json" for name in ("gt", "pred", "out")}
        for name, doc in docs.items():
            paths[name].write_text(json.dumps(doc))
        code, _, err = run_quietly(argv_of(paths))
        if bad:
            assert code == 1 and str(paths[bad]) in err, (code, err)
            return None
        assert code == 0, err
        return {name: load_manifest(paths[name]) for name in ("gt", "pred")}, json.loads(paths["out"].read_text())


def direct_count(rec):
    if "count" in rec:
        return rec["count"]
    return len(rec["points"] if "points" in rec else rec["boxes"])


DIFF = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@DIFF
@given(manifest_pairs())
def test_fuzz_eval_count_equals_a_direct_count(case):
    docs, bad = case
    outcome = run_pair(docs, bad, lambda p: ["eval-count", "--gt", str(p["gt"]), "--pred", str(p["pred"]),
                                             "--out", str(p["out"])])
    if outcome is None:
        return
    pred = {rec["id"]: direct_count(rec) for rec in docs["pred"]["records"]}
    pairs = [(direct_count(rec), pred[rec["id"]]) for rec in docs["gt"]["records"]]
    n = len(pairs)
    assert outcome[1] == {
        "model": "prediction",
        "accuracy": sum(g == p for g, p in pairs) / n,
        "mse": sum((g - p) ** 2 for g, p in pairs) / n,
        "mae": sum(abs(g - p) for g, p in pairs) / n,
        "n": n,
    }


@DIFF
@given(manifest_pairs(pred_boxes_only=True), st.sampled_from(["0.0625", "0.125", "0.5"]),
       st.sampled_from([0.0, 0.25, 0.5, 1.0]))
def test_fuzz_tune_threshold_equals_the_accuracy_at_each_threshold(case, step, nms_iou):
    docs, bad = case
    outcome = run_pair(docs, bad, lambda p: ["tune-threshold", "--gt", str(p["gt"]), "--pred", str(p["pred"]),
                                             "--grid-step", step, "--nms", str(nms_iou), "--out", str(p["out"])])
    if outcome is None:
        return
    datasets, curve = outcome
    want = [accuracy_at_threshold(datasets["pred"], datasets["gt"], t, nms_iou) for t in curve["thresholds"]]
    assert curve["thresholds"] == [k * float(step) for k in range(len(want))]
    assert curve["accuracies"] == want
    best = want.index(max(want))
    assert (curve["best_threshold"], curve["best_accuracy"]) == (curve["thresholds"][best], want[best])


@st.composite
def manifest_docs(draw, min_size=0):
    n = draw(st.integers(min_size, 12))
    return {"name": "m", "records": [{"id": f"r{i}", "width": 64, "height": 64, **draw(tiers())} for i in range(n)]}


def ids_in(path):
    return [rec["id"] for rec in json.loads(Path(path).read_text())["records"]]


@DIFF
@given(manifest_docs(), st.data(), st.integers(0, 2**32))
def test_fuzz_split_partitions_the_records_as_ablate_orders_them(doc, data, seed):
    n = len(doc["records"])
    train_count = data.draw(st.integers(0, n))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        src = tmp / "m.json"
        src.write_text(json.dumps(doc))
        for twin in "ab":  # the same seed twice
            code, out, err = run_quietly(["split", "--manifest", src, "--train-count", train_count, "--seed", seed,
                                          "--out-train", tmp / f"train-{twin}.json",
                                          "--out-test", tmp / f"test-{twin}.json"])
            assert code == 0, err
            assert json.loads(out) == {"train_size": train_count, "test_size": n - train_count, "seed": seed}
        for half in ("train", "test"):
            assert (tmp / f"{half}-a.json").read_bytes() == (tmp / f"{half}-b.json").read_bytes()
        train, test = ids_in(tmp / "train-a.json"), ids_in(tmp / "test-a.json")
        assert (len(train), len(test)) == (train_count, n - train_count)
        assert sorted(train + test) == sorted(rec["id"] for rec in doc["records"])  # disjoint, and every record
        records = load_manifest(src).index()
        for half in ("train", "test"):
            assert all(rec == records[rec.id] for rec in load_manifest(tmp / f"{half}-a.json").records)
        if train_count:
            # ablate takes its order from split's training order for the same seed,
            # and a fraction of k / n keeps round(k) = k records.
            code, out, err = run_quietly(["ablate", "--manifest", src, "--fractions", repr(train_count / n),
                                          "--seed", seed, "--out-dir", tmp / "ablate"])
            assert code == 0, err
            assert ids_in(json.loads(out)["subsets"][0]["path"]) == train


@DIFF
@given(manifest_docs(min_size=1), st.lists(st.integers(1, 16), min_size=1, max_size=5, unique=True),
       st.integers(0, 2**32))
def test_fuzz_ablate_nests_subsets_of_the_rounded_sizes(doc, sixteenths, seed):
    fractions = [k / 16 for k in sorted(sixteenths)]
    n = len(doc["records"])
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "m.json"
        src.write_text(json.dumps(doc))
        code, out, err = run_quietly(["ablate", "--manifest", src, "--fractions", ",".join(map(repr, fractions)),
                                      "--seed", seed, "--out-dir", Path(tmp) / "ablate"])
        assert code == 0, err
        listing = json.loads(out)
        assert listing["seed"] == seed and [entry["fraction"] for entry in listing["subsets"]] == fractions
        previous = []
        for f, entry in zip(fractions, listing["subsets"]):
            ids = ids_in(entry["path"])
            assert len(ids) == entry["size"] == math.floor(Fraction(f) * n + Fraction(1, 2))  # halves away from 0
            assert ids[: len(previous)] == previous and len(set(ids)) == len(ids)
            previous = ids
        assert set(previous) <= {rec["id"] for rec in doc["records"]}


def first_crossing(fractions, accuracies, target):
    """Where the piecewise-linear curve first reaches ``target``, in exact
    rational arithmetic: the first point at or above it, or the line into
    that point from the one before; None if no point reaches it."""
    reached = [i for i, a in enumerate(accuracies) if a >= target]
    if not reached:
        return None
    i = reached[0]
    if i == 0:
        return Fraction(fractions[0])
    f0, f1, a0, a1 = map(Fraction, (fractions[i - 1], fractions[i], accuracies[i - 1], accuracies[i]))
    return f0 + (Fraction(target) - a0) * (f1 - f0) / (a1 - a0)


@st.composite
def curve_docs(draw):
    size = draw(st.integers(1, 6))
    fractions = sorted(draw(st.lists(st.integers(1, 16), min_size=size, max_size=size, unique=True)))
    accuracies = draw(st.lists(unit16, min_size=size, max_size=size))
    return {"fractions": [k / 16 for k in fractions], "accuracies": accuracies, "label": draw(st.text(max_size=3))}


@DIFF
@given(curve_docs(), unit16 | st.floats(0.0, 1.0))
def test_fuzz_break_even_equals_the_first_crossing(doc, target):
    with tempfile.TemporaryDirectory() as tmp:
        curve, result = Path(tmp) / "curve.json", Path(tmp) / "out.json"
        curve.write_text(json.dumps(doc))
        code, _, err = run_quietly(["break-even", "--curve", curve, "--target", repr(target), "--out", result])
        assert code == 0, err
        got = json.loads(result.read_text())
    want = first_crossing(doc["fractions"], doc["accuracies"], target)
    assert (got["target"], got["label"]) == (target, doc["label"])
    if want is None:
        assert got["fraction"] is None and max(doc["accuracies"]) < target
    else:
        assert math.isclose(got["fraction"], want, rel_tol=1e-12)


BAD_JSON = {"bad-json": b'{"records": [', "non-object-record": b'{"name": "m", "records": [5]}', "missing": None}
BAD_CAM = {"non-ascii-byte": b"CAM v1\n2 1\n0.5 \xe9\n", "missing": None}
BAD_FRAME = {"non-ascii-byte": b"FRAME v1\n2 1\n0.5 \xe9\n", "missing": None}
# Every subcommand that reads a file: its argv, with {bad} at the file under test, and the bad inputs to give it.
READERS = {
    "eval-count-gt": (["eval-count", "--gt", "{bad}", "--pred", "{good}"], BAD_JSON),
    "eval-count-pred": (["eval-count", "--gt", "{good}", "--pred", "{bad}"], BAD_JSON),
    "eval-locate-gt": (["eval-locate", "--gt", "{bad}", "--pred", "{good}"], BAD_JSON),
    "eval-locate-pred": (["eval-locate", "--gt", "{good}", "--pred", "{bad}"], BAD_JSON),
    "tune-threshold-gt": (["tune-threshold", "--gt", "{bad}", "--pred", "{good}", "--out", "{out}"], BAD_JSON),
    "tune-threshold-pred": (["tune-threshold", "--gt", "{good}", "--pred", "{bad}", "--out", "{out}"], BAD_JSON),
    "convert": (["convert", "--in", "{bad}", "--to", "count", "--out", "{out}"], BAD_JSON),
    "split": (["split", "--manifest", "{bad}", "--train-count", "0", "--out-train", "{out}", "--out-test", "{out}"],
              BAD_JSON),
    "ablate": (["ablate", "--manifest", "{bad}", "--out-dir", "{out}"], BAD_JSON),
    "break-even": (["break-even", "--curve", "{bad}", "--target", "0.5"], BAD_JSON),
    "report": (["report", "--in", "{bad}"], BAD_JSON),
    "locate-cam": (["locate-cam", "--map", "{bad}", "--count", "1"], BAD_CAM),
    "winsorize": (["winsorize", "{bad}", "{out}"], BAD_FRAME),
}


@pytest.mark.parametrize("reader, payload", [(r, p) for r, (_, bad) in READERS.items() for p in bad])
def test_every_file_reader_exits_1_naming_a_bad_input(tmp_path, reader, payload):
    argv, bad = READERS[reader]
    paths = {"bad": tmp_path / "bad", "good": tmp_path / "good.json", "out": tmp_path / "out"}
    paths["good"].write_text(json.dumps(
        {"name": "g", "records": [{"id": "r0", "width": 64, "height": 64, "boxes": [[0.5, 0.5, 0.25, 0.25, 1.0]]}]}
    ))
    if bad[payload] is not None:
        paths["bad"].write_bytes(bad[payload])
    code, _, err = run_quietly([arg.format(**paths) for arg in argv])
    assert code == 1 and err.startswith("error: ") and str(paths["bad"]) in err, (code, err)
    assert not paths["out"].exists()
