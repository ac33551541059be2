"""Winsorization, unit scaling, and the FRAME container."""

import math
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ircount import Grid, _gridio
from ircount._gridio import GridFormatError, read_grid, write_grid
from ircount.preprocess import (
    normalize_unit,
    percentile,
    read_frame,
    winsorize,
    winsorize_bounds,
    write_frame,
)
from oracles import repr_grid_text, whole_text_read_grid


def sorted_interp_percentile(values, q):
    """Independent oracle: linear interpolation on the sorted values."""
    s = sorted(float(v) for v in values)
    if len(s) == 1:
        return s[0]
    pos = q / 100.0 * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    frac = pos - lo
    return s[lo] + frac * (s[hi] - s[lo])


def frame_of(values, width=None):
    values = np.asarray(values, dtype=float).ravel()
    width = width or len(values)
    height = len(values) // width
    return Grid(width, height, values)


finite_frames = arrays(
    np.float64,
    st.tuples(st.integers(2, 12), st.integers(2, 12)),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


def test_frame_validation():
    with pytest.raises(ValueError, match="values"):
        Grid(3, 3, np.zeros(8))
    with pytest.raises(ValueError, match="finite"):
        Grid(2, 1, np.array([1.0, np.nan]))
    with pytest.raises(ValueError, match="positive"):
        Grid(0, 3, np.zeros(0))


def test_grid_rejects_values_shaped_against_its_dimensions():
    with pytest.raises(ValueError, match=r"^grid values have shape \(4, 8\), expected \(8, 4\)$"):
        Grid(4, 8, np.arange(32.0).reshape(4, 8))
    assert Grid(4, 8, np.arange(32.0)).values.shape == (8, 4)
    assert Grid(4, 8, np.arange(32.0).reshape(8, 4)).values[0].tolist() == [0.0, 1.0, 2.0, 3.0]


def test_frame_values_read_only():
    f = frame_of([1.0, 2.0, 3.0, 4.0], width=2)
    with pytest.raises(ValueError):
        f.values[0, 0] = 9.0


@given(arrays(np.float64, st.integers(16, 400), elements=st.floats(-1e9, 1e9, allow_nan=False, allow_infinity=False)))
def test_percentile_matches_sorted_interp_oracle(values):
    for q in (0.0, 5.0, 37.5, 50.0, 95.0, 100.0):
        expected = sorted_interp_percentile(values, q)
        got = percentile(values, q)
        assert got == pytest.approx(expected, abs=1e-12 + 1e-12 * abs(expected))


def test_winsorize_constant_frame_unchanged():
    f = frame_of([7.0] * 25, width=5)
    out = winsorize(f, 5, 95)
    assert np.array_equal(out.values, f.values)


def test_winsorize_1_to_100_clips_to_values_inside_percentile_range():
    f = frame_of(np.arange(1.0, 101.0), width=10)
    p5 = sorted_interp_percentile(f.values.ravel(), 5)
    p95 = sorted_interp_percentile(f.values.ravel(), 95)
    lo_expected = min(v for v in f.values.ravel() if v >= p5)
    hi_expected = max(v for v in f.values.ravel() if v <= p95)
    assert (p5, p95) == (5.95, 95.05)
    assert (lo_expected, hi_expected) == (6.0, 95.0)
    out = winsorize(f, 5, 95)
    assert out.values.min() == lo_expected
    assert out.values.max() == hi_expected
    assert p5 <= out.values.min() and out.values.max() <= p95


def test_winsorize_bounds_degenerate_two_values():
    # No datum falls inside the percentile interval; fall back to the
    # interpolated percentiles themselves.
    f = frame_of([0.0, 10.0], width=2)
    low, high = winsorize_bounds(f, 5, 95)
    assert (low, high) == (0.5, 9.5)


@given(finite_frames)
@settings(max_examples=60)
def test_winsorize_idempotent(values):
    f = Grid(values.shape[1], values.shape[0], values)
    once = winsorize(f, 5, 95)
    twice = winsorize(once, 5, 95)
    assert np.array_equal(once.values, twice.values)


@given(finite_frames)
@settings(max_examples=60)
def test_winsorize_monotone_and_contained(values):
    f = Grid(values.shape[1], values.shape[0], values)
    out = winsorize(f, 5, 95)
    flat_in = f.values.ravel()
    flat_out = out.values.ravel()
    order = np.argsort(flat_in, kind="stable")
    assert np.all(np.diff(flat_out[order]) >= 0)
    p5 = sorted_interp_percentile(flat_in, 5)
    p95 = sorted_interp_percentile(flat_in, 95)
    assert flat_out.min() >= p5 - 1e-9 * max(1.0, abs(p5))
    assert flat_out.max() <= p95 + 1e-9 * max(1.0, abs(p95))
    assert np.all(np.isfinite(flat_out))


def test_winsorize_spans_the_float_range():
    values = np.linspace(-1.0, 1.0, 21) * np.finfo(np.float64).max
    out = winsorize(frame_of(values), 5, 95)
    assert out.values.min() == values[1] and out.values.max() == values[-2]
    assert percentile([-1.7e308, 1.7e308], 50) == 0.0


@pytest.mark.parametrize("lo,hi", [(-1, 95), (50, 95), (5, 50), (5, 101)])
def test_winsorize_rejects_bad_percentiles(lo, hi):
    f = frame_of(np.arange(9.0), width=3)
    with pytest.raises(ValueError):
        winsorize(f, lo, hi)


def test_normalize_unit_basic():
    f = frame_of([0.0, 5.0, 10.0])
    out = normalize_unit(f)
    assert out.values.ravel().tolist() == [0.0, 0.5, 1.0]


def test_normalize_unit_constant_is_zeros():
    f = frame_of([3.5] * 6, width=3)
    assert np.array_equal(normalize_unit(f).values, np.zeros((2, 3)))


def test_normalize_unit_range_wider_than_float_max():
    out = normalize_unit(Grid(2, 1, [-1.7e308, 1.7e308]))
    assert out.values.ravel().tolist() == [0.0, 1.0]
    out = normalize_unit(Grid(3, 1, [-1.7e308, 0.0, 1.7e308]))
    assert out.values.ravel().tolist() == [0.0, 0.5, 1.0]


@given(
    arrays(
        np.float64,
        st.integers(2, 24),
        elements=st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([-1.7e308, 1.7e308])),
    )
)
@settings(max_examples=60)
def test_normalize_unit_spans_the_float_range(values):
    out = normalize_unit(frame_of(values, width=values.size)).values.ravel()
    if values.min() == values.max():
        assert not out.any()
    else:
        assert out.min() == 0.0 and out.max() == 1.0
        assert np.all(np.diff(out[np.argsort(values, kind="stable")]) >= 0)


@given(finite_frames)
@settings(max_examples=40)
def test_normalize_unit_hits_bounds_for_nonconstant(values):
    f = Grid(values.shape[1], values.shape[0], values)
    out = normalize_unit(f)
    if np.ptp(f.values) == 0:
        assert np.array_equal(out.values, np.zeros_like(f.values))
    else:
        assert out.values.min() == 0.0
        assert out.values.max() == 1.0


def test_frame_file_round_trip(tmp_path):
    f = frame_of(np.linspace(-3.7, 291.123456789, 24), width=6)
    path = tmp_path / "x.frame"
    write_frame(f, path)
    back = read_frame(path)
    assert (back.width, back.height) == (f.width, f.height)
    assert np.array_equal(back.values, f.values)
    assert path.read_text().startswith("FRAME v1\n6 4\n")


def test_frame_file_errors(tmp_path):
    bad = tmp_path / "bad.frame"
    bad.write_text("NOT-A-FRAME\n2 2\n1 2 3 4\n")
    with pytest.raises(ValueError, match="header"):
        read_frame(bad)
    short = tmp_path / "short.frame"
    short.write_text("FRAME v1\n2 2\n1 2 3\n")
    with pytest.raises(ValueError, match="expected 4 values"):
        read_frame(short)


@pytest.mark.parametrize(
    "values, message",
    [
        ("1 2\n3", "expected 4 values, found 3"),
        ("1 2\n3 4\n5", "expected 4 values, found 5"),
        ("1 x\n3", "expected 4 values, found 3"),  # a wrong count outranks a bad token
        ("1 x\n3 4 5", "expected 4 values, found 5"),
        ("1 2\n3 x", "non-numeric grid value: could not convert string to float: 'x'"),
        ("", "expected 4 values, found 0"),
    ],
)
def test_frame_file_value_count_and_token_errors(tmp_path, values, message):
    path = tmp_path / "odd.frame"
    path.write_text(f"FRAME v1\n2 2\n{values}\n")
    with pytest.raises(GridFormatError) as err:
        read_frame(path)
    assert str(err.value) == f"{path}: {message}"


def test_grid_reader_does_not_allocate_what_the_dimensions_line_claims(tmp_path):
    path = tmp_path / "short.frame"
    path.write_text("FRAME v1\n4000 4000\n1 2 3\n")  # 16M values would take 128 MB
    tracemalloc.start()
    try:
        with pytest.raises(GridFormatError, match="expected 16000000 values, found 3$"):
            read_frame(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize(
    "payload",
    [b"FRAME v1\n2 1\n1.0 nan\n", b"FRAME v1\n2 1\n1.0 1e999\n", b"FRAME v1\n2 1\n1.0 \xff\n"],
    ids=["nan", "overflow", "non-ascii"],
)
def test_frame_file_value_errors_name_the_file(tmp_path, payload):
    path = tmp_path / "odd.frame"
    path.write_bytes(payload)
    with pytest.raises(GridFormatError) as err:
        read_frame(path)
    assert str(path) in str(err.value)


# Values where shortest repr is delicate: signed zeros, subnormals, the
# extremes of the finite range and decimals with no exact binary form.
edge_floats = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1.7976931348623157e308, -1e300, 0.1, 255.0]
)


@st.composite
def repetitive_grids(draw):
    """A (height, width) grid drawn from a small pool of values, so values
    repeat within and across blocks; as float64, integer or transposed."""
    pool = [0.0, -0.0] + draw(st.lists(edge_floats | st.floats(allow_nan=False, allow_infinity=False), max_size=8))
    height, width = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    picks = draw(arrays(np.intp, (width, height), elements=st.integers(0, len(pool) - 1)))
    values = np.array(pool)[picks].T  # transposed: not C-contiguous
    form = draw(st.sampled_from(["float", "contiguous", "int"]))
    if form == "contiguous":
        values = np.ascontiguousarray(values)
    elif form == "int":
        values = picks.T * draw(st.sampled_from([1, -7, 2**40]))
    return values


@given(repetitive_grids(), st.sampled_from([1, 3, 16, 64, _gridio._WRITE_BLOCK_CELLS]))
@settings(max_examples=150, deadline=None)
def test_write_grid_equals_a_per_value_repr_writer(values, block):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(_gridio, "_WRITE_BLOCK_CELLS", block):
        path = Path(tmp) / "g.frame"
        write_grid(path, "FRAME", values)
        assert path.read_bytes() == repr_grid_text("FRAME", values).encode("ascii")
        width, height, back = read_grid(path, "FRAME")
    assert (height, width) == values.shape
    assert back.view(np.uint64).tolist() == np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def test_write_grid_rows_wider_than_a_block_equal_the_per_value_writer(tmp_path):
    rng = np.random.default_rng(17)
    width = _gridio._WRITE_BLOCK_CELLS + 5
    values = rng.choice([0.0, -0.0, 5e-324, 0.1, 1e308, rng.normal()], size=(3, width))
    values[1] = rng.normal(size=width)  # one row of all-distinct values
    write_grid(tmp_path / "wide.cam", "CAM", values)
    assert (tmp_path / "wide.cam").read_bytes() == repr_grid_text("CAM", values).encode("ascii")


def test_write_grid_renders_each_distinct_value_once_per_grid(tmp_path):
    rng = np.random.default_rng(29)
    pool = rng.normal(size=1000)
    values = pool[rng.integers(0, pool.size, size=(512, 640))]  # 20 blocks, each meeting most of the pool
    assert np.unique(values).size == pool.size
    with mock.patch.object(_gridio, "repr", create=True, side_effect=repr) as rendered:
        write_grid(tmp_path / "pool.frame", "FRAME", values)
    assert rendered.call_count == pool.size
    assert (tmp_path / "pool.frame").read_bytes() == repr_grid_text("FRAME", values).encode("ascii")


@pytest.mark.parametrize(
    "blocks, renders",
    [(list(range(10)), 640), ([0, 0, 1, 0, 1], 256)],
    ids=["distinct", "repeats"],
)
def test_write_grid_past_a_full_table_renders_per_block(tmp_path, blocks, renders):
    # 64-cell blocks of 4 rows, each drawn as one of ten sets of distinct values.
    # Block 0 fills the table; a repeat of it is looked up, not rendered. Block 1,
    # none of whose values the full table holds, ends the lookups, so the later
    # repeats are rendered again: 64 + 0 + 64 + 64 + 64. A table that kept
    # growing renders 128, and one kept full after block 1, 192.
    sets = np.random.default_rng(7).normal(size=(10, 4, 16))
    values = np.concatenate(sets[blocks])
    with (
        mock.patch.object(_gridio, "_WRITE_BLOCK_CELLS", 64),
        mock.patch.object(_gridio, "repr", create=True, side_effect=repr) as rendered,
    ):
        write_grid(tmp_path / "g.frame", "FRAME", values)
    assert rendered.call_count == renders
    assert (tmp_path / "g.frame").read_bytes() == repr_grid_text("FRAME", values).encode("ascii")


@pytest.mark.parametrize("rounded, bound", [(False, 2.7), (True, 3.3)], ids=["distinct", "rounded-frame"])
def test_write_grid_peak_memory_stays_near_its_rows_and_their_join(tmp_path, rounded, bound):
    # Rows and join read 2.45x on all-distinct values and 3.17x on a frame of
    # 17,517 short values. A table that kept every string reads 6.2x on the
    # first; a full table still alive during the join, 3.56x on the second.
    values = np.random.default_rng(11).normal(size=(512, 640))
    if rounded:
        values = np.round(values * 3.0 + 22.0, 3)
    path = tmp_path / "grid.frame"
    tracemalloc.start()
    try:
        write_grid(path, "FRAME", values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * path.stat().st_size


grid_separators = st.sampled_from([" ", " ", "\n", "\r\n", "\r", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "  \n "])


@st.composite
def grid_payloads(draw):
    """Grid file bytes near the FRAME layout: header, dimensions and value
    tokens joined by any ASCII whitespace or line break, sometimes padded
    past the reader's decode chunk and sometimes holding a non-ASCII byte."""
    width, height = draw(st.integers(-1, 3)), draw(st.integers(-1, 3))
    parts = [
        draw(st.sampled_from(["FRAME v1", " FRAME v1 ", "CAM v1", "FRAME", ""])),
        draw(st.sampled_from([f"{width} {height}", f"{width}", f"{width} x", ""])),
    ]
    size = max(width, 0) * max(height, 0) + draw(st.sampled_from([0, 0, -1, 1]))
    parts += draw(st.lists(st.sampled_from(["1", "-0.5", "2e3", "x", "nan", "1e999"]), min_size=max(size, 0),
                           max_size=max(size, 0)))
    text = parts[0]
    for part in parts[1:]:
        text += draw(grid_separators) + part
    text += draw(st.sampled_from(["", "\n", " " * 9000 + "\n"]))
    payload = text.encode("ascii")
    if draw(st.booleans()):
        at = int(draw(st.sampled_from([0.0, 0.3, 0.7, 1.0])) * len(payload))
        payload = payload[:at] + b"\xff" + payload[at:]
    return payload


@given(grid_payloads())
@settings(max_examples=300, deadline=None)
def test_read_grid_streams_to_what_a_whole_text_reader_gives(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.frame"
        path.write_bytes(payload)
        try:
            want = whole_text_read_grid(path, "FRAME")
        except GridFormatError as exc:
            with pytest.raises(GridFormatError) as err:
                read_grid(path, "FRAME")
            assert str(err.value) == str(exc)
            return
        width, height, values = read_grid(path, "FRAME")
    assert (width, height) == want[:2]
    assert values.view(np.uint64).tolist() == want[2].view(np.uint64).tolist()


def test_read_grid_reports_a_non_ascii_value_past_the_first_chunk_as_the_whole_text_reader(tmp_path):
    # The header decodes from the first 8 KB chunk; the bad byte is met among the values.
    text = "FRAME v1\n3000 1\n" + "0.5 " * 3000 + "\n"
    at = text.index("0.5", 9000)
    path = tmp_path / "late.frame"
    path.write_bytes(text[:at].encode("ascii") + b"\xe9" + text[at + 1 :].encode("ascii"))
    with pytest.raises(GridFormatError) as want:
        whole_text_read_grid(path, "FRAME")
    with pytest.raises(GridFormatError) as got:
        read_grid(path, "FRAME")
    assert str(got.value) == str(want.value)
    assert f"position {at}:" in str(got.value)
