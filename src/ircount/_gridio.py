"""The checked grid type and the reader/writer for its plain-text container.

Layout: a header line ``<TAG> v1``, a dimensions line ``<width> <height>``,
then width*height whitespace-separated reals in row-major order.
"""

from __future__ import annotations

import itertools
from dataclasses import InitVar, dataclass
from pathlib import Path

import numpy as np

from ircount._fsutil import write_text_atomic


class GridFormatError(ValueError):
    """A grid file does not follow the expected container layout."""


@dataclass(frozen=True, eq=False)
class Grid:
    """A checked single-channel grid: an IR frame or a class activation map.

    ``values``, flat in row-major order or shaped (height, width), is held
    as a read-only float64 (height, width) array with every value finite.
    ``value_range`` is checked at construction and not stored: activation
    maps pass ``camloc.CAM_RANGE``, frames pass none.
    """

    width: int
    height: int
    values: np.ndarray
    value_range: InitVar[tuple[float, float] | None] = None

    def __post_init__(self, value_range: tuple[float, float] | None) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(f"grid dimensions must be positive, got {self.width} x {self.height}")
        arr = np.array(self.values, dtype=np.float64)
        if arr.size != self.width * self.height:
            raise ValueError(f"grid has {arr.size} values, expected {self.width * self.height}")
        if arr.ndim > 1 and arr.shape != (self.height, self.width):
            raise ValueError(f"grid values have shape {arr.shape}, expected {(self.height, self.width)}")
        arr = arr.reshape(self.height, self.width)
        if not np.all(np.isfinite(arr)):
            raise ValueError("grid values must all be finite")
        if value_range is not None:
            lo, hi = value_range
            if arr.min() < lo or arr.max() > hi:
                raise ValueError(f"grid values must lie in [{lo:g}, {hi:g}]")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)


def checked_grid(
    path: str | Path, read: tuple[int, int, np.ndarray], value_range: tuple[float, float] | None = None
) -> Grid:
    """Build a :class:`Grid` from a :func:`read_grid` result, naming ``path``
    when the values fail the grid's checks."""
    try:
        return Grid(*read, value_range)
    except ValueError as exc:
        raise GridFormatError(f"{path}: {exc}") from None


def read_grid(path: str | Path, tag: str) -> tuple[int, int, np.ndarray]:
    """Read a grid file, returning (width, height, values) with values shaped (height, width)."""
    path = Path(path)
    try:
        text = path.read_text(encoding="ascii")
    except (OSError, UnicodeDecodeError) as exc:
        raise GridFormatError(f"cannot read {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines or lines[0].strip() != f"{tag} v1":
        raise GridFormatError(f"{path}: expected header '{tag} v1'")
    if len(lines) < 2:
        raise GridFormatError(f"{path}: missing dimensions line")
    dims = lines[1].split()
    if len(dims) != 2:
        raise GridFormatError(f"{path}: dimensions line must be '<width> <height>'")
    try:
        width, height = int(dims[0]), int(dims[1])
    except ValueError as exc:
        raise GridFormatError(f"{path}: non-integer dimensions {lines[1]!r}") from exc
    if width < 1 or height < 1:
        raise GridFormatError(f"{path}: dimensions must be positive, got {width} x {height}")
    # One line's tokens at a time, so neither a joined copy of the text nor a token list is
    # held; with no count, the array grows with the values present, not the dimensions line.
    tokens = itertools.chain.from_iterable(map(str.split, lines[2:]))
    try:
        values = np.fromiter(map(float, tokens), dtype=np.float64)
    except ValueError as exc:
        # Only a bad file pays for counting, and a wrong count outranks a bad token.
        found = sum(len(line.split()) for line in lines[2:])
        if found == width * height:
            raise GridFormatError(f"{path}: non-numeric grid value: {exc}") from exc
    else:
        found = values.size
    if found != width * height:
        raise GridFormatError(f"{path}: expected {width * height} values, found {found}")
    return width, height, values.reshape(height, width)


def write_grid(path: str | Path, tag: str, values: np.ndarray) -> None:
    """Write a (height, width) array as a grid file atomically (temp file + rename).

    Floats are rendered with repr so a read-back is bit-exact.
    """
    values = np.asarray(values, dtype=np.float64)
    height, width = values.shape
    rows = [f"{tag} v1", f"{width} {height}"]
    rows.extend(" ".join(map(repr, row.tolist())) for row in values)
    write_text_atomic(path, "\n".join(rows) + "\n")
