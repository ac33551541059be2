"""Raw IR frame normalization: percentile outlier trimming and unit scaling."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ircount._gridio import Grid, checked_grid, read_grid, write_grid

FRAME_TAG = "FRAME"


def percentile(values: np.ndarray, q: float) -> float:
    """q-th percentile by linear interpolation on the sorted values.

    Finite neighbours whose difference overflows are interpolated at half
    scale instead, which is exact except for subnormals.
    """
    arr = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        result = float(np.percentile(arr, q, method="linear"))
    if not np.isfinite(result) and np.isfinite(arr).all():
        result = 2.0 * float(np.percentile(arr / 2.0, q, method="linear"))
    return result


def winsorize_bounds(frame: Grid, lo: float = 5.0, hi: float = 95.0) -> tuple[float, float]:
    """Clip bounds used by :func:`winsorize`.

    The interpolated lo/hi percentiles delimit the kept range; the actual
    bounds are the extreme data values falling inside that range. Snapping
    to data values makes the trim idempotent, and the output range is still
    contained in the percentile interval. If no value lies inside the
    interval (possible only for very small frames), the interpolated
    percentiles themselves are used.
    """
    if not 0.0 <= lo < 50.0:
        raise ValueError(f"lo percentile must be in [0, 50), got {lo}")
    if not 50.0 < hi <= 100.0:
        raise ValueError(f"hi percentile must be in (50, 100], got {hi}")
    flat = frame.values.ravel()
    p_lo, p_hi = percentile(flat, lo), percentile(flat, hi)
    inside = flat[(flat >= p_lo) & (flat <= p_hi)]
    if inside.size == 0:
        return p_lo, p_hi
    return float(inside.min()), float(inside.max())


def winsorize(frame: Grid, lo: float = 5.0, hi: float = 95.0) -> Grid:
    """Trim outliers by clipping into the lo/hi percentile range.

    Per-frame statistics: cameras report absolute temperatures that drift
    per scene, so each frame is trimmed against its own distribution.
    """
    low, high = winsorize_bounds(frame, lo, hi)
    return Grid(frame.width, frame.height, np.clip(frame.values, low, high))


def normalize_unit(frame: Grid) -> Grid:
    """Affinely map values onto [0, 1]; constant frames map to all zeros.

    A range wider than the largest float is mapped at half scale instead,
    which is exact except for subnormals.
    """
    vmin = float(frame.values.min())
    vmax = float(frame.values.max())
    if vmax == vmin:
        return Grid(frame.width, frame.height, np.zeros_like(frame.values))
    span = vmax - vmin
    if np.isfinite(span):
        return Grid(frame.width, frame.height, (frame.values - vmin) / span)
    return Grid(frame.width, frame.height, (frame.values / 2.0 - vmin / 2.0) / (vmax / 2.0 - vmin / 2.0))


def read_frame(path: str | Path) -> Grid:
    """Read a frame from the FRAME v1 text container."""
    return checked_grid(path, read_grid(path, FRAME_TAG))


def write_frame(frame: Grid, path: str | Path) -> None:
    """Write a frame to the FRAME v1 text container (bit-exact round trip)."""
    write_grid(path, FRAME_TAG, frame.values)
