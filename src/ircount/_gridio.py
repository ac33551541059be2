"""The checked grid type and the reader/writer for its plain-text container.

Layout: a header line ``<TAG> v1``, a dimensions line ``<width> <height>``,
then width*height whitespace-separated reals in row-major order.
"""

from __future__ import annotations

import itertools
from dataclasses import InitVar, dataclass
from pathlib import Path
from typing import TextIO

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
    """Read a grid file, returning (width, height, values) with values shaped (height, width).

    The file is read a line at a time. A file that is not ASCII throughout
    is reported as unreadable before any fault in its layout.
    """
    path = Path(path)
    try:
        with path.open(encoding="ascii") as f:
            return _read_open_grid(path, tag, f)
    except UnicodeDecodeError as exc:
        error: Exception = exc
        try:  # a stream counts byte positions from its chunk, one decode from the file's start
            path.read_bytes().decode("ascii")
        except (OSError, UnicodeDecodeError) as whole:
            error = whole
    except OSError as exc:
        error = exc
    raise GridFormatError(f"cannot read {path}: {error}") from error


def _read_open_grid(path: Path, tag: str, f: TextIO) -> tuple[int, int, np.ndarray]:
    def fail(message: str) -> GridFormatError:
        for _ in f:  # a decode error anywhere in the file outranks a layout fault
            pass
        return GridFormatError(f"{path}: {message}")

    head: list[str] = []  # the first lines, split as str.splitlines() splits the whole text
    for line in f:
        head += line.splitlines()
        if len(head) >= 2:
            break
    if not head or head[0].strip() != f"{tag} v1":
        raise fail(f"expected header '{tag} v1'")
    if len(head) < 2:
        raise fail("missing dimensions line")
    dims = head[1].split()
    if len(dims) != 2:
        raise fail("dimensions line must be '<width> <height>'")
    try:
        width, height = int(dims[0]), int(dims[1])
    except ValueError as exc:
        raise fail(f"non-integer dimensions {head[1]!r}") from exc
    if width < 1 or height < 1:
        raise fail(f"dimensions must be positive, got {width} x {height}")
    # One line's tokens at a time, so neither the text nor a token list is held;
    # with no count, the array grows with the values present, not the dimensions line.
    tokens = itertools.chain.from_iterable(map(str.split, itertools.chain(head[2:], f)))
    try:
        values = np.fromiter(map(float, tokens), dtype=np.float64)
    except UnicodeDecodeError:
        raise
    except ValueError as exc:
        # Only a bad file pays for counting, in a second read, and a wrong count
        # outranks a bad token. Line breaks are whitespace to str.split.
        with path.open(encoding="ascii") as again:
            found = sum(len(line.split()) for line in again) - len(head[0].split()) - len(dims)
        if found == width * height:
            raise GridFormatError(f"{path}: non-numeric grid value: {exc}") from exc
    else:
        found = values.size
    if found != width * height:
        raise GridFormatError(f"{path}: expected {width * height} values, found {found}")
    return width, height, values.reshape(height, width)


_WRITE_BLOCK_CELLS = 1 << 14  # cells formatted together; a block's temporaries stay small


def write_grid(path: str | Path, tag: str, values: np.ndarray) -> None:
    """Write a (height, width) array as a grid file atomically (temp file + rename).

    Floats are rendered with repr so a read-back is bit-exact. The first
    ``_WRITE_BLOCK_CELLS`` distinct 64-bit patterns are rendered once per
    grid, until a later block holds none of them; others, once per block.
    """
    values = np.asarray(values, dtype=np.float64)
    height, width = values.shape
    rows = [f"{tag} v1", f"{width} {height}"]
    step = max(1, _WRITE_BLOCK_CELLS // max(width, 1))
    # The patterns rendered so far, sorted. The all-ones pattern, a NaN, ends it: every lookup lands inside.
    empty_table = np.full(1, 2**64 - 1, dtype=np.uint64), np.array(["nan"], dtype=object)
    (known, known_words), room = empty_table, _WRITE_BLOCK_CELLS
    for start in range(0, height, step):
        block = values[start : start + step]
        bits, inverse = np.unique(block.view(np.uint64), return_inverse=True)
        at = np.searchsorted(known, bits)
        words, new = known_words[at], known[at] != bits
        words[new] = list(map(repr, bits[new].view(np.float64).tolist()))
        if known.size < room:
            known, known_words = np.insert(known, at[new], bits[new]), np.insert(known_words, at[new], words[new])
        elif new.all():  # a full table that holds none of this block's values: stop looking up
            (known, known_words), room = empty_table, 0
        rows.extend(map(" ".join, words[inverse.reshape(block.shape)].tolist()))
    del known, known_words  # freed before the join doubles the rows
    rows.append("")  # the final newline
    write_text_atomic(path, "\n".join(rows))
