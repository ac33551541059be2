"""Winsorization, unit scaling, and the FRAME container."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ircount import Grid
from ircount._gridio import GridFormatError
from ircount.preprocess import (
    normalize_unit,
    percentile,
    read_frame,
    winsorize,
    winsorize_bounds,
    write_frame,
)


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
