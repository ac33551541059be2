"""Fuzzed inputs through the CLI: every run ends in exit 0 or 1, and every
exit-1 message names the input file.

Inputs are arbitrary bytes, arbitrary JSON values, and JSON or grid text
shaped like the real formats so that the checks past the outer layer run.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ircount.cli import run

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
