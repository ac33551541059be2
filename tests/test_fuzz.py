"""Fuzzed inputs through the CLI: every run ends in exit 0 or 1, and every
exit-1 message names the input file.

Inputs are arbitrary bytes, arbitrary JSON values, and JSON or grid text
shaped like the real formats so that the checks past the outer layer run.
The two-manifest commands are fuzzed differentially: valid manifests on a
dyadic grid, where ties are common, must give what a direct computation
gives.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

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


def run_on(payload, suffix, argv_of):
    """Write payload to a fresh input file, run the CLI on it, and check the outcome."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"input{suffix}"
        path.write_bytes(payload)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run(argv_of(str(path), str(Path(tmp) / f"out{suffix}")))
    assert code in (0, 1), err.getvalue()
    if code == 1:
        assert str(path) in err.getvalue(), err.getvalue()


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
        err, out = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
            code = run(argv_of(paths))
        if bad:
            assert code == 1 and str(paths[bad]) in err.getvalue(), (code, err.getvalue())
            return None
        assert code == 0, err.getvalue()
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
