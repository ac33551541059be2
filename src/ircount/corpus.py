"""Annotation data model for people-counting datasets.

Three annotation tiers are supported per image: bounding boxes, center
points, and a bare person count. Manifests are JSON files holding any
subset of the tiers; converters derive weaker tiers from stronger ones.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

from ircount._fsutil import write_text_atomic


class ManifestError(ValueError):
    """A manifest failed to parse or one of its records is invalid."""


def _check_unit(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")


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
        _check_unit("cx", self.cx)
        _check_unit("cy", self.cy)
        _check_unit("score", self.score)
        if not (0.0 < self.w <= 1.0 and 0.0 < self.h <= 1.0):
            raise ValueError(f"box size must be in (0, 1], got {self.w!r} x {self.h!r}")


@dataclass(frozen=True)
class PointAnnotation:
    """A person's center location in normalized coordinates, with confidence."""

    cx: float
    cy: float
    score: float = 1.0

    def __post_init__(self) -> None:
        _check_unit("cx", self.cx)
        _check_unit("cy", self.cy)
        _check_unit("score", self.score)


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

    At least one tier must be present. When an explicit count coexists
    with boxes or points, the cardinalities must agree.
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
        if not self.id:
            raise ValueError("record id must be a non-empty string")
        if self.width < 1 or self.height < 1:
            raise ValueError(f"record {self.id!r}: dimensions must be positive")
        if self.boxes is None and self.points is None and self.count is None:
            raise ValueError(f"record {self.id!r}: no annotation tier present")
        if self.count is not None and self.boxes is not None and self.count.count != len(self.boxes):
            raise ValueError(
                f"record {self.id!r}: count {self.count.count} != {len(self.boxes)} boxes"
            )
        if self.count is not None and self.points is not None and self.count.count != len(self.points):
            raise ValueError(
                f"record {self.id!r}: count {self.count.count} != {len(self.points)} points"
            )


@dataclass(frozen=True)
class Dataset:
    """Named, ordered collection of image records with unique ids."""

    name: str
    records: tuple[ImageRecord, ...]

    def __post_init__(self) -> None:
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


def _parse_box(raw: object, width: int, height: int, pixel: bool) -> BoundingBox:
    if not isinstance(raw, (list, tuple)) or len(raw) != 5:
        raise ValueError(f"box must be [cx, cy, w, h, score], got {raw!r}")
    cx, cy, w, h, score = (float(v) for v in raw)
    if pixel:
        cx, w = cx / width, w / width
        cy, h = cy / height, h / height
    return BoundingBox(cx, cy, w, h, score)


def _parse_point(raw: object, width: int, height: int, pixel: bool) -> PointAnnotation:
    if not isinstance(raw, (list, tuple)) or len(raw) != 3:
        raise ValueError(f"point must be [cx, cy, score], got {raw!r}")
    cx, cy, score = (float(v) for v in raw)
    if pixel:
        cx, cy = cx / width, cy / height
    return PointAnnotation(cx, cy, score)


def _parse_record(raw: dict, pixel: bool, max_count: int) -> ImageRecord:
    rec_id = raw.get("id")
    if not isinstance(rec_id, str) or not rec_id:
        raise ValueError(f"missing or invalid id: {raw.get('id')!r}")
    width, height = raw.get("width"), raw.get("height")
    if any(not isinstance(v, int) or isinstance(v, bool) for v in (width, height)):
        raise ValueError(f"width and height must be integers, got {width!r} x {height!r}")
    boxes = points = count = None
    if "boxes" in raw:
        boxes = tuple(_parse_box(b, width, height, pixel) for b in raw["boxes"])
    if "points" in raw:
        points = tuple(_parse_point(p, width, height, pixel) for p in raw["points"])
    if "count" in raw:
        count = CountLabel(raw["count"])
        if count.count > max_count:
            raise ValueError(f"count {count.count} exceeds max_count {max_count}")
    frame_path = raw.get("frame_path")
    if frame_path is not None and not isinstance(frame_path, str):
        raise ValueError(f"frame_path must be a string, got {frame_path!r}")
    return ImageRecord(rec_id, width, height, boxes, points, count, frame_path)


def load_manifest(path: str | Path, max_count: int = 20) -> Dataset:
    """Load and validate a JSON manifest.

    Record-level violations are collected and reported together, each
    naming the offending record id. ``max_count`` bounds explicit count
    labels only; derived cardinalities are not restricted.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ManifestError(f"cannot parse manifest {path}: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("records"), list):
        raise ManifestError(f"{path}: manifest must be an object with a 'records' list")
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise ManifestError(f"{path}: manifest 'name' must be a non-empty string")
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
        except ValueError as exc:
            errors.append(f"record {label!r}: {exc}")
    if errors:
        raise ManifestError(
            f"{path}: {len(errors)} invalid record(s)\n" + "\n".join(errors)
        )
    return Dataset(name, tuple(records))


def _record_to_dict(rec: ImageRecord) -> dict:
    out: dict = {"id": rec.id, "width": rec.width, "height": rec.height}
    if rec.boxes is not None:
        out["boxes"] = [[b.cx, b.cy, b.w, b.h, b.score] for b in rec.boxes]
    if rec.points is not None:
        out["points"] = [[p.cx, p.cy, p.score] for p in rec.points]
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
