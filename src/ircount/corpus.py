"""Annotation data model for people-counting datasets.

Three annotation tiers are supported per image: bounding boxes, center
points, and a bare person count. Manifests are JSON files holding any
subset of the tiers; converters derive weaker tiers from stronger ones.
"""

from __future__ import annotations

import json
import operator
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

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


@dataclass(frozen=True)
class ImageRecord:
    """One image with any subset of the annotation tiers.

    At least one tier must be present, each made of its own annotation
    type. When an explicit count coexists with boxes or points, the
    cardinalities must agree.
    """

    id: str
    width: int
    height: int
    boxes: tuple[BoundingBox, ...] | None = None
    points: tuple[PointAnnotation, ...] | None = None
    count: CountLabel | None = None
    frame_path: str | None = None

    def __post_init__(self) -> None:
        if self.boxes is not None:
            object.__setattr__(self, "boxes", tuple(self.boxes))
        if self.points is not None:
            object.__setattr__(self, "points", tuple(self.points))
        if type(self.id) is not str or not self.id:
            raise ValueError(f"record id must be a non-empty string, got {self.id!r}")
        _check_dims(self.width, self.height)
        if self.frame_path is not None and type(self.frame_path) is not str:
            raise ValueError(f"frame_path must be a string or None, got {self.frame_path!r}")
        if self.boxes is None and self.points is None and self.count is None:
            raise ValueError(f"record {self.id!r}: no annotation tier present")
        if self.count is not None and type(self.count) is not CountLabel:
            raise ValueError(f"record {self.id!r}: count must be a CountLabel, got {self.count!r}")
        for kind, tier, cls in (("boxes", self.boxes, BoundingBox), ("points", self.points, PointAnnotation)):
            if tier is not None and operator.countOf(map(type, tier), cls) != len(tier):
                raise ValueError(f"record {self.id!r}: {kind} must all be {cls.__name__} instances")
            if self.count is not None and tier is not None and self.count.count != len(tier):
                raise ValueError(f"record {self.id!r}: count {self.count.count} != {len(tier)} {kind}")


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


def boxes_to_points(boxes: Sequence[BoundingBox]) -> list[PointAnnotation]:
    """Reduce boxes to their center points, keeping order and scores."""
    return [PointAnnotation(b.cx, b.cy, b.score) for b in boxes]


def annotation_to_count(record: ImageRecord) -> CountLabel:
    """Derive the person count from the richest-priority tier present.

    Priority is explicit count, then points, then boxes: an explicit
    label is authoritative over cardinalities derived from geometry.
    """
    if record.count is not None:
        return record.count
    if record.points is not None:
        return CountLabel(len(record.points))
    if record.boxes is not None:
        return CountLabel(len(record.boxes))
    raise ValueError(f"record {record.id!r}: no annotation tier present")


def split_dataset(ds: Dataset, train_count: int, seed: int) -> tuple[Dataset, Dataset]:
    """Split into (train, test) via a seeded shuffle.

    The first ``train_count`` records of the shuffled order form the
    train split; the remainder form the test split. The same seed always
    produces the same id sequences.
    """
    n = len(ds.records)
    if not 0 <= train_count <= n:
        raise ValueError(f"train_count {train_count} out of range [0, {n}]")
    order = list(range(n))
    random.Random(seed).shuffle(order)
    train = tuple(ds.records[i] for i in order[:train_count])
    test = tuple(ds.records[i] for i in order[train_count:])
    return Dataset(f"{ds.name}-train", train), Dataset(f"{ds.name}-test", test)


_JSON_NUMBERS = frozenset((int, float))  # the types json.loads gives numbers; not bool or str


def _parse_entry(
    raw: object, kind: str, cls: type[BoundingBox | PointAnnotation], width: int, height: int, pixel: bool
) -> BoundingBox | PointAnnotation:
    """Build a box or point from its JSON entry: the class's fields, in order.

    Pixel coordinates divide even positions by the width and odd ones by
    the height; the last position is the score and is never divided.
    """
    fields = cls.__match_args__
    if not isinstance(raw, (list, tuple)) or len(raw) != len(fields):
        raise ValueError(f"{kind} must be [{', '.join(fields)}], got {raw!r}")
    if not _JSON_NUMBERS.issuperset(map(type, raw)):
        raise ValueError(f"{kind} values must be numbers, got {raw!r}")
    values = list(map(float, raw))
    if pixel:
        for i in range(len(values) - 1):
            values[i] /= height if i % 2 else width
    return cls(*values)


def _parse_record(raw: dict, pixel: bool, max_count: int) -> ImageRecord:
    width, height = raw.get("width"), raw.get("height")
    _check_dims(width, height)  # pixel entries divide by them
    boxes = points = count = None
    if "boxes" in raw:
        boxes = tuple(_parse_entry(b, "box", BoundingBox, width, height, pixel) for b in raw["boxes"])
    if "points" in raw:
        points = tuple(_parse_entry(p, "point", PointAnnotation, width, height, pixel) for p in raw["points"])
    if "count" in raw:
        count = CountLabel(raw["count"])
        if count.count > max_count:
            raise ValueError(f"count {count.count} exceeds max_count {max_count}")
    return ImageRecord(raw.get("id"), width, height, boxes, points, count, raw.get("frame_path"))


def load_manifest(path: str | Path, max_count: int = 20) -> Dataset:
    """Load and validate a JSON manifest.

    Record-level violations are collected and reported together, each
    naming the offending record id. ``max_count`` bounds explicit count
    labels only; derived cardinalities are not restricted.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise ManifestError(f"cannot parse manifest {path}: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("records"), list):
        raise ManifestError(f"{path}: manifest must be an object with a 'records' list")
    coords = doc.get("coords", "normalized")
    if coords not in ("normalized", "pixel"):
        raise ManifestError(f"{path}: coords must be 'normalized' or 'pixel', got {coords!r}")
    pixel = coords == "pixel"

    records: list[ImageRecord] = []
    errors: list[str] = []
    seen: set[str] = set()
    for i, raw in enumerate(doc["records"]):
        label = raw.get("id", f"#{i}") if isinstance(raw, dict) else f"#{i}"
        try:
            if not isinstance(raw, dict):
                raise ValueError(f"record entry must be an object, got {raw!r}")
            rec = _parse_record(raw, pixel, max_count)
            if rec.id in seen:
                raise ValueError("duplicate record id")
            seen.add(rec.id)
            records.append(rec)
        except (ValueError, TypeError, OverflowError) as exc:
            errors.append(f"record {label!r}: {exc}")
    if errors:
        raise ManifestError(
            f"{path}: {len(errors)} invalid record(s)\n" + "\n".join(errors)
        )
    try:
        return Dataset(doc.get("name"), tuple(records))
    except ValueError as exc:
        raise ManifestError(f"{path}: {exc}") from exc


_BOX_ENTRY = operator.attrgetter(*BoundingBox.__match_args__)
_POINT_ENTRY = operator.attrgetter(*PointAnnotation.__match_args__)


def _record_to_dict(rec: ImageRecord) -> dict:
    out: dict = {"id": rec.id, "width": rec.width, "height": rec.height}
    if rec.boxes is not None:
        out["boxes"] = list(map(_BOX_ENTRY, rec.boxes))
    if rec.points is not None:
        out["points"] = list(map(_POINT_ENTRY, rec.points))
    if rec.count is not None:
        out["count"] = rec.count.count
    if rec.frame_path is not None:
        out["frame_path"] = rec.frame_path
    return out


def _record_line(rec: ImageRecord) -> str:
    """The record's manifest line, encoded on first use and kept on the
    (frozen, so never stale) instance outside its fields."""
    line = rec.__dict__.get("_line")
    if line is None:
        line = json.dumps(_record_to_dict(rec))
        object.__setattr__(rec, "_line", line)
    return line


def save_manifest(ds: Dataset, path: str | Path) -> None:
    """Write a manifest, one record per line, that loads back field-exactly
    (atomic write)."""
    records = ",\n".join(_record_line(rec) for rec in ds.records)
    tail = "\n]}\n" if records else "]}\n"
    write_text_atomic(path, f'{{"name": {json.dumps(ds.name)}, "records": [\n{records}{tail}')
