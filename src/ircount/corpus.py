"""Annotation data model for people-counting datasets.

Three annotation tiers are supported per image: bounding boxes, center
points, and a bare person count. Manifests are JSON files holding any
subset of the tiers; converters derive weaker tiers from stronger ones.
"""

from __future__ import annotations

import itertools
import json
import operator
import random
import reprlib
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator

import numpy as np

from ircount._fsutil import write_text_atomic


class ManifestError(ValueError):
    """A manifest failed to parse or one of its records is invalid."""


def _check_dims(width: object, height: object) -> None:
    if not (type(width) is int and type(height) is int and width >= 1 and height >= 1):
        raise ValueError(f"width and height must be positive integers, got {width!r} x {height!r}")


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box in normalized center-size form.

    Coordinates are fractions of image width (cx, w) and height (cy, h).
    ``score`` is the detector confidence; ground truth uses 1.0.
    """

    cx: float
    cy: float
    w: float
    h: float
    score: float = 1.0

    def __post_init__(self) -> None:
        cx, cy, w, h, score = self.cx, self.cy, self.w, self.h, self.score
        if not (0.0 <= cx <= 1.0 and 0.0 <= cy <= 1.0 and 0.0 < w <= 1.0 and 0.0 < h <= 1.0 and 0.0 <= score <= 1.0):
            raise ValueError(f"box needs cx, cy, score in [0, 1] and w, h in (0, 1], got {self!r}")
        if type(cx) is bool or type(cy) is bool or type(w) is bool or type(h) is bool or type(score) is bool:
            raise ValueError(f"box values must be numbers, not booleans, got {self!r}")


@dataclass(frozen=True)
class PointAnnotation:
    """A person's center location in normalized coordinates, with confidence."""

    cx: float
    cy: float
    score: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.cx <= 1.0 and 0.0 <= self.cy <= 1.0 and 0.0 <= self.score <= 1.0):
            raise ValueError(f"point needs cx, cy, score in [0, 1], got {self!r}")
        if type(self.cx) is bool or type(self.cy) is bool or type(self.score) is bool:
            raise ValueError(f"point values must be numbers, not booleans, got {self!r}")


@dataclass(frozen=True)
class CountLabel:
    """Number of people in an image."""

    count: int

    def __post_init__(self) -> None:
        if not isinstance(self.count, int) or isinstance(self.count, bool):
            raise ValueError(f"count must be an integer, got {self.count!r}")
        if self.count < 0:
            raise ValueError(f"count must be non-negative, got {self.count}")


def _rows_of(entries: object, n: int) -> np.ndarray | None:
    """``entries`` as a ``(k, n)`` float64 array when numpy reads them as k
    rows of n ints or floats, else None: strings, nulls, ragged or nested
    rows and ints too large for a float all fail. Bools read as numbers
    here, so finding them is the caller's job."""
    try:
        rows = np.array(entries)
    except (ValueError, TypeError, OverflowError):
        return None
    if rows.shape == (0,):
        return np.empty((0, n))
    if rows.dtype.kind not in "fi" or rows.ndim != 2 or rows.shape[1] != n:
        return None
    return rows.astype(np.float64, copy=False)


def _rows_ok(rows: np.ndarray, cls: type[BoundingBox | PointAnnotation]) -> bool:
    """Whether ``cls`` accepts every row: the bulk form of the range checks
    in ``BoundingBox`` and ``PointAnnotation``. Every value lies in [0, 1]
    (a NaN fails, as min and max pass it on), and a box's w and h are
    above 0."""
    if not (rows.min(initial=0.0) >= 0.0 and rows.max(initial=0.0) <= 1.0):
        return False
    return cls is not BoundingBox or rows[:, 2:4].min(initial=1.0) > 0.0


def _tier(rec_id: object, name: str, value: object, cls: type[BoundingBox | PointAnnotation]) -> np.ndarray | None:
    """A tier given to ``ImageRecord`` as read-only ``(k, n)`` float64 rows,
    from an array of rows or a sequence of ``cls`` items. Both are checked
    in bulk, and a bad row raises its item's own message."""
    if value is None:
        return None
    fields = cls.__match_args__
    rows = None
    if isinstance(value, np.ndarray):
        rows = _rows_of(value, len(fields))
    elif hasattr(value, "__iter__"):
        items = tuple(value)
        if operator.countOf(map(type, items), cls) == len(items):
            rows = _rows_of(list(map(operator.attrgetter(*fields), items)), len(fields))
    if rows is None:
        raise ValueError(
            f"record {rec_id!r}: {name} must be {cls.__name__} items or a (k, {len(fields)}) array of numbers, "
            f"got {reprlib.repr(value)}"
        )
    if not _rows_ok(rows, cls):
        for row in rows.tolist():
            cls(*row)  # raises the first bad row's own message
    rows.flags.writeable = False
    return rows


@dataclass(frozen=True, eq=False)
class ImageRecord:
    """One image with any subset of the annotation tiers.

    At least one tier must be present, each made of its own annotation
    type. When an explicit count coexists with boxes or points, the
    cardinalities must agree.

    A tier is given as a sequence of items or as an array of their
    fields, one row per item. Either way the record stores it as a
    read-only float64 array, ``boxes`` of shape (k, 5) and ``points`` of
    shape (k, 3), or None when the tier is absent. Records compare and
    hash by value, their tiers row by row as Python floats.
    """

    id: str
    width: int
    height: int
    boxes: np.ndarray | None = None
    points: np.ndarray | None = None
    count: CountLabel | None = None
    frame_path: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "boxes", _tier(self.id, "boxes", self.boxes, BoundingBox))
        object.__setattr__(self, "points", _tier(self.id, "points", self.points, PointAnnotation))
        self._check()

    @classmethod
    def _of_rows(cls, **fields: object) -> ImageRecord:
        """A record from every field, with tiers as read-only rows that
        already passed ``_rows_ok``, as ``load_manifest`` checks a whole
        file at once."""
        rec = object.__new__(cls)
        rec.__dict__.update(fields)
        rec._check()
        return rec

    def _check(self) -> None:
        if type(self.id) is not str or not self.id:
            raise ValueError(f"record id must be a non-empty string, got {self.id!r}")
        _check_dims(self.width, self.height)
        if self.frame_path is not None and type(self.frame_path) is not str:
            raise ValueError(f"frame_path must be a string or None, got {self.frame_path!r}")
        if self.boxes is None and self.points is None and self.count is None:
            raise ValueError(f"record {self.id!r}: no annotation tier present")
        if self.count is None:
            return
        if type(self.count) is not CountLabel:
            raise ValueError(f"record {self.id!r}: count must be a CountLabel, got {self.count!r}")
        for kind, rows in (("boxes", self.boxes), ("points", self.points)):
            if rows is not None and self.count.count != len(rows):
                raise ValueError(f"record {self.id!r}: count {self.count.count} != {len(rows)} {kind}")

    def _value(self) -> tuple:
        tiers = (None if rows is None else tuple(map(tuple, rows.tolist())) for rows in (self.boxes, self.points))
        return (self.id, self.width, self.height, *tiers, self.count, self.frame_path)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._value() == other._value()

    def __hash__(self) -> int:
        return hash(self._value())

    @cached_property
    def _line(self) -> str:
        """The record's manifest line, encoded on first use (the record is
        frozen, so it never goes stale)."""
        return json.dumps(_record_to_dict(self))


@dataclass(frozen=True)
class Dataset:
    """Named, ordered collection of image records with unique ids."""

    name: str
    records: tuple[ImageRecord, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(f"dataset name must be a non-empty string, got {self.name!r}")
        object.__setattr__(self, "records", tuple(self.records))
        seen: set[str] = set()
        for rec in self.records:
            if rec.id in seen:
                raise ValueError(f"duplicate record id {rec.id!r}")
            seen.add(rec.id)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[ImageRecord]:
        return iter(self.records)

    def index(self) -> dict[str, ImageRecord]:
        """Map record id -> record (insertion order preserved)."""
        return {rec.id: rec for rec in self.records}


def aligned_records(gt: Dataset, pred: Dataset) -> list[tuple[ImageRecord, ImageRecord]]:
    """Pair records of two datasets by id, in ground-truth order.

    Raises when the id sets differ, naming the first few differences.
    """
    gt_index = gt.index()
    pred_index = pred.index()
    if set(gt_index) != set(pred_index):
        missing = sorted(set(gt_index) ^ set(pred_index))[:5]
        raise ValueError(
            f"manifests do not align by record id (first differences: {missing})"
        )
    return [(rec, pred_index[rec.id]) for rec in gt.records]


def boxes_to_points(boxes: np.ndarray) -> np.ndarray:
    """Reduce ``(k, 5)`` box rows to ``(k, 3)`` point rows of their
    centers and scores, in order."""
    return boxes[:, [0, 1, 4]]


def annotation_to_count(record: ImageRecord) -> CountLabel:
    """Derive the person count from the richest-priority tier present.

    Priority is explicit count, then points, then boxes: an explicit
    label is authoritative over cardinalities derived from geometry.
    """
    if record.count is not None:
        return record.count
    if record.points is not None:
        return CountLabel(len(record.points))
    return CountLabel(len(record.boxes))


def split_dataset(ds: Dataset, train_count: int, seed: int) -> tuple[Dataset, Dataset]:
    """Split into (train, test) via a seeded shuffle.

    The first ``train_count`` records of the shuffled order form the
    train split; the remainder form the test split. The same seed always
    produces the same id sequences.
    """
    n = len(ds.records)
    if not 0 <= train_count <= n:
        raise ValueError(f"train_count {train_count} out of range [0, {n}]")
    order = list(ds.records)
    random.Random(seed).shuffle(order)
    return Dataset(f"{ds.name}-train", order[:train_count]), Dataset(f"{ds.name}-test", order[train_count:])


_JSON_NUMBERS = frozenset((int, float))  # the types json.loads gives numbers; not bool or str


def _entry(
    raw: object, cls: type[BoundingBox | PointAnnotation], width: int, height: int, pixel: bool
) -> BoundingBox | PointAnnotation:
    """One box or point entry, checked on its own, as a ``cls`` item.
    Raises the message that names what is wrong.

    Pixel coordinates divide even positions by the width and odd ones by
    the height; the last position is the score and is never divided.
    """
    fields, kind = cls.__match_args__, "box" if cls is BoundingBox else "point"
    if not isinstance(raw, (list, tuple)) or len(raw) != len(fields):
        raise ValueError(f"{kind} must be [{', '.join(fields)}], got {raw!r}")
    if not _JSON_NUMBERS.issuperset(map(type, raw)):
        raise ValueError(f"{kind} values must be numbers, got {raw!r}")
    values = list(map(float, raw))
    if pixel:
        for i in range(len(values) - 1):
            values[i] /= height if i % 2 else width
    return cls(*values)


def _count(raw: dict, max_count: int) -> CountLabel | None:
    if "count" not in raw:
        return None
    count = CountLabel(raw["count"])
    if count.count > max_count:
        raise ValueError(f"count {count.count} exceeds max_count {max_count}")
    return count


def _record_of(raw: object, pixel: bool, max_count: int) -> ImageRecord:
    """One manifest record, checked on its own in this order, so that its
    error names its first problem: the dimensions, each box, each point,
    the count, then the record as a whole."""
    if not isinstance(raw, dict):
        raise ValueError(f"record entry must be an object, got {raw!r}")
    width, height = raw.get("width"), raw.get("height")
    _check_dims(width, height)  # pixel entries divide by them
    tiers = {name: tuple(_entry(e, cls, width, height, pixel) for e in raw[name])
             for name, cls in (("boxes", BoundingBox), ("points", PointAnnotation)) if name in raw}
    count = _count(raw, max_count)
    return ImageRecord(raw.get("id"), width, height, count=count, frame_path=raw.get("frame_path"), **tiers)


def _tier_rows(
    cls: type[BoundingBox | PointAnnotation], name: str, raws: list, pixel: bool, bools: bool
) -> list[np.ndarray | None]:
    """Each record's ``name`` tier, in record order: a read-only view of one
    ``(k, n)`` array of the whole file's entries, read with one ``np.array``
    call and checked in bulk, or None where the record has no such tier.
    Raises when an entry is not a row of plain numbers that ``cls`` accepts
    (a type numpy does not read as a number, a bool when the file text has
    one, a value out of range) or a pixel file's dimension is too large for
    a float."""
    n = len(cls.__match_args__)
    holders = [raw for raw in raws if name in raw]
    entries = [e for raw in holders for e in raw[name]]
    rows = _rows_of(entries, n)
    if rows is None or (bools and any(bool in map(type, e) for e in entries)):
        raise ValueError(f"{cls.__name__} entries are not all rows of {n} numbers")
    sizes = [len(raw[name]) for raw in holders]
    if pixel and len(rows):
        scale = np.repeat(np.array([(raw["width"], raw["height"]) for raw in holders], dtype=np.float64), sizes, axis=0)
        rows[:, :-1:2] /= scale[:, :1]
        rows[:, 1:-1:2] /= scale[:, 1:]
    if not _rows_ok(rows, cls):
        raise ValueError(f"{cls.__name__} entries out of range")
    rows.flags.writeable = False
    views = iter([rows[end - size:end] for size, end in zip(sizes, itertools.accumulate(sizes))])
    return [next(views) if name in raw else None for raw in raws]


def _bulk_dataset(doc: dict, pixel: bool, bools: bool, max_count: int) -> Dataset:
    """A valid manifest's dataset, with each tier's entries in the whole
    file read into one array; every record keeps views of those arrays.
    Raises at the first problem, with no message meant for a reader."""
    raws = doc["records"]
    for raw in raws:
        _check_dims(raw["width"], raw["height"])  # pixel entries divide by them
    boxes = _tier_rows(BoundingBox, "boxes", raws, pixel, bools)
    points = _tier_rows(PointAnnotation, "points", raws, pixel, bools)
    return Dataset(doc.get("name"), tuple(
        ImageRecord._of_rows(
            id=raw.get("id"), width=raw["width"], height=raw["height"], boxes=rec_boxes, points=rec_points,
            count=_count(raw, max_count), frame_path=raw.get("frame_path"),
        )
        for raw, rec_boxes, rec_points in zip(raws, boxes, points)
    ))


def load_manifest(path: str | Path, max_count: int = 20) -> Dataset:
    """Load and validate a JSON manifest.

    ``max_count`` bounds explicit count labels only; derived cardinalities
    are not restricted. A valid file loads in bulk: each tier's entries in
    the whole file are read into one array and checked at once, and every
    record keeps views of those arrays. If anything there fails, the file
    loads again record by record, and that result stands: the error names
    every bad record by its id, each with its first problem.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
        doc = json.loads(text)
    except (OSError, ValueError, RecursionError) as exc:
        raise ManifestError(f"cannot parse manifest {path}: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("records"), list):
        raise ManifestError(f"{path}: manifest must be an object with a 'records' list")
    coords = doc.get("coords", "normalized")
    if coords not in ("normalized", "pixel"):
        raise ManifestError(f"{path}: coords must be 'normalized' or 'pixel', got {coords!r}")
    pixel = coords == "pixel"
    try:
        return _bulk_dataset(doc, pixel, "true" in text or "false" in text, max_count)
    except (ValueError, TypeError, KeyError, OverflowError):
        pass  # the per-record path below finds and words what is wrong

    records: dict[str, ImageRecord] = {}
    errors: list[str] = []
    for i, raw in enumerate(doc["records"]):
        try:
            rec = _record_of(raw, pixel, max_count)
            if rec.id in records:
                raise ValueError("duplicate record id")
            records[rec.id] = rec
        except (ValueError, TypeError, OverflowError) as exc:
            label = raw.get("id", f"#{i}") if isinstance(raw, dict) else f"#{i}"
            errors.append(f"record {label!r}: {exc}")
    if errors:
        raise ManifestError(f"{path}: {len(errors)} invalid record(s)\n" + "\n".join(errors))
    try:
        return Dataset(doc.get("name"), tuple(records.values()))
    except ValueError as exc:
        raise ManifestError(f"{path}: {exc}") from exc


def _record_to_dict(rec: ImageRecord) -> dict:
    out: dict = {"id": rec.id, "width": rec.width, "height": rec.height}
    if rec.boxes is not None:
        out["boxes"] = rec.boxes.tolist()
    if rec.points is not None:
        out["points"] = rec.points.tolist()
    if rec.count is not None:
        out["count"] = rec.count.count
    if rec.frame_path is not None:
        out["frame_path"] = rec.frame_path
    return out


def save_manifest(ds: Dataset, path: str | Path) -> None:
    """Write a manifest, one record per line, that loads back field-exactly
    (atomic write)."""
    records = ",\n".join(rec._line for rec in ds.records)
    tail = "\n]}\n" if records else "]}\n"
    write_text_atomic(path, f'{{"name": {json.dumps(ds.name)}, "records": [\n{records}{tail}')
