"""Data model, manifest IO, converters, and splitting."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import box_record, box_rows, count_record, make_box, make_dataset, make_point
from ircount import corpus
from ircount.corpus import (
    BoundingBox,
    CountLabel,
    Dataset,
    ImageRecord,
    ManifestError,
    PointAnnotation,
    aligned_records,
    annotation_to_count,
    boxes_to_points,
    load_manifest,
    save_manifest,
    split_dataset,
)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"cx": -0.1},
        {"cx": 1.5},
        {"w": 0.0},
        {"h": 1.2},
        {"score": -0.2},
        {"score": 1.1},
    ],
)
def test_bounding_box_rejects_out_of_range(kwargs):
    base = dict(cx=0.5, cy=0.5, w=0.2, h=0.2, score=1.0)
    base.update(kwargs)
    with pytest.raises(ValueError):
        BoundingBox(**base)


def test_point_and_count_validation():
    with pytest.raises(ValueError):
        PointAnnotation(0.5, 2.0)
    with pytest.raises(ValueError):
        CountLabel(-1)
    with pytest.raises(ValueError):
        CountLabel(2.5)


def test_record_requires_some_tier():
    with pytest.raises(ValueError, match="no annotation tier"):
        ImageRecord("r1", 64, 64)


def test_record_cross_tier_count_mismatch_names_record():
    with pytest.raises(ValueError, match="r7"):
        ImageRecord("r7", 64, 64, boxes=(make_box(), make_box()), count=CountLabel(3))
    with pytest.raises(ValueError, match="points"):
        ImageRecord("r8", 64, 64, points=(make_point(),), count=CountLabel(2))


@pytest.mark.parametrize("tier, value", [("boxes", 3), ("points", 5)])
def test_record_rejects_non_iterable_tier_naming_it(tier, value):
    with pytest.raises(ValueError, match=f"record 'a': {tier} must be"):
        ImageRecord("a", 8, 8, **{tier: value})


def test_record_stores_tiers_as_read_only_arrays():
    boxes = (make_box(0.25, 0.5, 0.125, 0.25, 0.75), make_box())
    rec = ImageRecord("a", 8, 8, boxes=boxes, points=(make_point(0.25, 0.5, 0.75), make_point()))
    assert rec.boxes.dtype == np.float64 and rec.boxes.shape == (2, 5)
    assert rec.points.tolist() == [[0.25, 0.5, 0.75], [0.5, 0.5, 1.0]]
    assert not rec.boxes.flags.writeable and not rec.points.flags.writeable
    assert tuple(BoundingBox(*row) for row in rec.boxes.tolist()) == boxes
    assert ImageRecord("b", 8, 8, count=CountLabel(0)).boxes is None


def test_record_from_array_equals_record_from_items():
    rows = np.array([[0.25, 0.5, 0.125, 0.25, 0.75], [0.5, 0.5, 0.1, 0.1, 1.0]])
    rec = ImageRecord("a", 8, 8, boxes=rows, count=CountLabel(2))
    twin = ImageRecord("a", 8, 8, boxes=tuple(BoundingBox(*row) for row in rows.tolist()), count=CountLabel(2))
    rows[0, 0] = 0.0  # the record holds its own copy
    assert rec.boxes[0, 0] == 0.25
    assert (rec, hash(rec), repr(rec)) == (twin, hash(twin), repr(twin))
    assert rec.__eq__("a") is NotImplemented and rec != "a"
    points = ImageRecord("p", 8, 8, points=rows[:, [0, 1, 4]]).points
    assert tuple(PointAnnotation(*row) for row in points.tolist()) == (
        PointAnnotation(0.0, 0.5, 0.75),
        PointAnnotation(0.5, 0.5, 1.0),
    )


def test_record_tiers_are_rows_whichever_way_it_is_built(tmp_path):
    boxes = (make_box(0.25, 0.5, 0.125, 0.25, 0.75), make_box(1, 0.0, 1, 1))
    points = (make_point(0.25, 0.5, 0.75), make_point(0.5, 0.5))
    items = ImageRecord("a", 8, 8, boxes=boxes, points=points, count=CountLabel(2))
    rows = ImageRecord(
        "a", 8, 8, boxes=np.array([[0.25, 0.5, 0.125, 0.25, 0.75], [1, -0.0, 1, 1, 1]]),
        points=np.array([[0.25, 0.5, 0.75], [0.5, 0.5, 1.0]]), count=CountLabel(2),
    )
    save_manifest(Dataset("d", (items,)), tmp_path / "d.json")
    loaded = load_manifest(tmp_path / "d.json").records[0]
    replaced = dataclasses.replace(loaded, boxes=None)
    for rec in (items, rows, loaded, replaced):
        for tier, n in ((rec.boxes, 5), (rec.points, 3)):
            assert tier is None or (tier.dtype == np.float64 and tier.shape == (2, n) and not tier.flags.writeable)
    assert replaced.boxes is None and replaced.points.tolist() == [[0.25, 0.5, 0.75], [0.5, 0.5, 1.0]]
    assert items == rows == loaded and hash(items) == hash(rows) == hash(loaded)  # 0.0 == -0.0, as floats
    assert replaced != loaded and len({items, rows, loaded, replaced}) == 2


@pytest.mark.parametrize(
    "rows, message",
    [
        (np.array([[0.5, 0.5, 0.0, 0.1, 1.0]]), "box needs"),
        (np.array([[0.5, 0.5, 0.1, 0.1, np.nan]]), "box needs"),
        (np.array([[0.5, 0.5, 0.1, 0.1]]), r"\(k, 5\)"),
        (np.array([0.5, 0.5, 0.1, 0.1, 1.0]), r"\(k, 5\)"),
        (np.array([["0.5", "0.5", "0.1", "0.1", "1"]]), r"\(k, 5\)"),
        (np.ones((1, 5), dtype=bool), r"\(k, 5\)"),
    ],
    ids=["zero-width", "nan-score", "four-columns", "one-dimensional", "strings", "bools"],
)
def test_record_rejects_bad_box_array(rows, message):
    with pytest.raises(ValueError, match=message):
        ImageRecord("a", 8, 8, boxes=rows)


def test_record_consistent_tiers_ok():
    rec = ImageRecord("r1", 64, 64, boxes=(make_box(), make_box()), count=CountLabel(2))
    assert rec.count.count == 2


def test_dataset_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="duplicate"):
        Dataset("d", (count_record("a", 1), count_record("a", 2)))


def test_boxes_to_points_empty():
    assert boxes_to_points(np.empty((0, 5))).shape == (0, 3)


def test_boxes_to_points_keeps_centers_scores_order():
    boxes = [
        make_box(0.5, 0.5, 0.2, 0.4, score=1.0),
        make_box(0.1, 0.9, 0.05, 0.05, score=0.25),
        make_box(0.7, 0.2, 0.3, 0.1, score=0.5),
    ]
    points = boxes_to_points(box_rows(boxes))
    assert points.tolist() == [[b.cx, b.cy, b.score] for b in boxes]


def test_annotation_to_count_priority():
    explicit = ImageRecord("a", 64, 64, points=(make_point(),) * 5, count=CountLabel(5))
    assert annotation_to_count(explicit).count == 5
    points_only = ImageRecord("b", 64, 64, points=(make_point(),) * 4)
    assert annotation_to_count(points_only).count == 4
    boxes_only = box_record("c", [make_box(cx=i / 20) for i in range(13)])
    assert annotation_to_count(boxes_only).count == 13


def test_annotation_to_count_empty_tier_is_zero():
    rec = ImageRecord("z", 64, 64, boxes=())
    assert annotation_to_count(rec).count == 0


def test_split_sizes_and_partition(small_dataset):
    train, test = split_dataset(small_dataset, 25, seed=3)
    assert (len(train), len(test)) == (25, 15)
    train_ids = {r.id for r in train}
    test_ids = {r.id for r in test}
    assert train_ids.isdisjoint(test_ids)
    assert train_ids | test_ids == {r.id for r in small_dataset}


def test_split_train_count_zero(small_dataset):
    train, test = split_dataset(small_dataset, 0, seed=1)
    assert len(train) == 0
    assert len(test) == len(small_dataset)
    assert {r.id for r in test} == {r.id for r in small_dataset}


def test_split_same_seed_same_id_sequences(small_dataset):
    a = split_dataset(small_dataset, 17, seed=9)
    b = split_dataset(small_dataset, 17, seed=9)
    assert [r.id for r in a[0]] == [r.id for r in b[0]]
    assert [r.id for r in a[1]] == [r.id for r in b[1]]


def test_split_out_of_range(small_dataset):
    with pytest.raises(ValueError):
        split_dataset(small_dataset, len(small_dataset) + 1, seed=0)
    with pytest.raises(ValueError):
        split_dataset(small_dataset, -1, seed=0)


@given(n=st.integers(1, 60), k=st.integers(0, 60), seed=st.integers(0, 10))
def test_split_partitions_for_any_cut(n, k, seed):
    ds = make_dataset(n)
    k = min(k, n)
    train, test = split_dataset(ds, k, seed)
    assert len(train) + len(test) == n
    assert {r.id for r in train}.isdisjoint({r.id for r in test})


def full_record():
    return ImageRecord(
        "img-全",
        320,
        240,
        boxes=(make_box(0.25, 0.5, 0.125, 0.25, 0.75),),
        points=(make_point(0.25, 0.5, 0.75),),
        count=CountLabel(1),
        frame_path="frames/img0.frame",
    )


def test_manifest_round_trip_field_exact(tmp_path):
    ds = Dataset("rt", (full_record(), count_record("only-count", 7)))
    path = tmp_path / "m.json"
    save_manifest(ds, path)
    assert load_manifest(path) == ds


unit = st.floats(0.0, 1.0)
size = st.floats(0.0, 1.0, exclude_min=True)
boxes_st = st.lists(st.builds(BoundingBox, unit, unit, size, size, unit), max_size=4)
points_st = st.lists(st.builds(PointAnnotation, unit, unit, unit), max_size=4)


@st.composite
def records(draw):
    boxes = draw(st.none() | boxes_st.map(tuple))
    points = draw(st.none() | points_st.map(tuple))
    sizes = {len(tier) for tier in (boxes, points) if tier is not None}
    if not sizes:
        count = CountLabel(draw(st.integers(0, 20)))
    elif len(sizes) == 1:
        count = draw(st.none() | st.just(CountLabel(sizes.pop())))
    else:
        count = None
    return ImageRecord(
        draw(st.text(min_size=1)),
        draw(st.integers(1, 4096)),
        draw(st.integers(1, 4096)),
        boxes,
        points,
        count,
        draw(st.none() | st.text()),
    )


@given(
    name=st.text(min_size=1),
    recs=st.lists(records(), max_size=6, unique_by=lambda r: r.id),
)
def test_manifest_round_trip_any_records(tmp_path_factory, name, recs):
    ds = Dataset(name, tuple(recs))
    path = tmp_path_factory.mktemp("rt") / "m.json"
    save_manifest(ds, path)
    assert load_manifest(path) == ds


# Values of the wrong type, or out of range, for each constructor argument.
# An int where a float belongs is allowed (1 saves as 1 and loads as
# 1.0 == 1), so "entry" mixes ints that must round-trip with bools.
WRONG = {
    "id": ("", 7, 2.5, True, None, b"r", ("r",)),
    "width": (True, False, 2.5, 64.0, 0, -3, "64", None),
    "height": (True, 1.0, 0, "8"),
    "frame_path": (3, 2.5, True, b"f", ("f",)),
    "count": (True, False, 1.0, -1),
    "entry": (True, False, 1, 0, 1.5),
}


@st.composite
def loose_records(draw):
    """An ImageRecord built from drawn arguments, at most one of them wrong.

    Each entry gives one box and the point at its center, so the tiers
    present agree in size. Returns the record, or the ValueError its
    constructor raised.
    """
    entries = draw(st.lists(st.tuples(unit, unit, size, size, unit).map(list), max_size=3))
    args = {
        "id": draw(st.text(min_size=1)),
        "width": draw(st.integers(1, 4096)),
        "height": draw(st.integers(1, 4096)),
        "frame_path": draw(st.none() | st.text()),
        "count": len(entries),
    }
    bad = draw(st.sampled_from([None, *WRONG]))
    if bad == "entry" and entries:
        entries[draw(st.integers(0, len(entries) - 1))][draw(st.integers(0, 4))] = draw(st.sampled_from(WRONG[bad]))
    elif bad in args:
        args[bad] = draw(st.sampled_from(WRONG[bad]))
    tiers = draw(st.sets(st.sampled_from(["boxes", "points", "count"]), min_size=1))
    try:
        return ImageRecord(
            args["id"],
            args["width"],
            args["height"],
            tuple(BoundingBox(*e) for e in entries) if "boxes" in tiers else None,
            tuple(PointAnnotation(e[0], e[1], e[4]) for e in entries) if "points" in tiers else None,
            CountLabel(args["count"]) if "count" in tiers else None,
            args["frame_path"],
        )
    except ValueError as exc:
        return exc


@given(
    name=st.text(min_size=1) | st.sampled_from(["", 0, 1.5, True, None, b"n", ("n",)]),
    recs=st.lists(loose_records(), max_size=4),
)
def test_constructors_reject_or_round_trip(tmp_path_factory, name, recs):
    # Whatever the public constructors accept, save_manifest writes and
    # load_manifest reads back equal; anything else raises ValueError.
    if any(isinstance(r, ValueError) for r in recs):
        return
    try:
        ds = Dataset(name, tuple(recs))
    except ValueError:
        return
    path = tmp_path_factory.mktemp("loose") / "m.json"
    save_manifest(ds, path)
    assert load_manifest(path) == ds


@pytest.mark.parametrize(
    "build",
    [
        lambda: ImageRecord("r", True, 64, count=CountLabel(1)),
        lambda: ImageRecord("r", 2.5, 64, count=CountLabel(1)),
        lambda: ImageRecord("r", 64, 64, boxes=(BoundingBox(True, 0.5, 0.1, 0.1),)),
        lambda: ImageRecord("r", 64, 64, points=(PointAnnotation(0.5, 0.5, True),)),
        lambda: ImageRecord("r", 64, 64, count=CountLabel(1), frame_path=3),
        lambda: Dataset("", ()),
        lambda: ImageRecord("r", 8, 8, count=3),
        lambda: ImageRecord("r", 8, 8, boxes=((0.5, 0.5, 0.1, 0.1, 1.0),)),
        lambda: ImageRecord("r", 8, 8, boxes=(PointAnnotation(0.5, 0.5),)),
        lambda: ImageRecord("r", 8, 8, points=(PointAnnotation(0.5, 0.5), BoundingBox(0.5, 0.5, 0.1, 0.1))),
        lambda: ImageRecord("r", 8, 8, points=(PointAnnotation(0.5, 0.5),), count=1),
    ],
    ids=[
        "bool-width", "float-width", "bool-box-value", "bool-point-value", "int-frame-path", "empty-dataset-name",
        "int-count", "tuple-box", "point-in-boxes", "box-in-points", "int-count-beside-points",
    ],
)
def test_constructor_rejects_what_the_loader_rejects(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("name", ["", 5, None])
def test_manifest_bad_name_names_file(tmp_path, name):
    path = tmp_path / "n.json"
    path.write_text(json.dumps({"name": name, "records": []}))
    with pytest.raises(ManifestError, match="name") as err:
        load_manifest(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("n", [0, 1, 3])
def test_manifest_one_record_per_line(tmp_path, n):
    ds = Dataset('q"uo\\te', tuple(count_record(f'r"{i}', i) for i in range(n)))
    path = tmp_path / "m.json"
    save_manifest(ds, path)
    text = path.read_text(encoding="utf-8")
    lines = text.split("\n")
    assert text.endswith("\n") and len(lines) - 1 == n + 2
    assert [json.loads(line.rstrip(",")) for line in lines[1:-2]] == json.loads(text)["records"]
    assert load_manifest(path) == ds


@pytest.mark.parametrize(
    ("n", "expected"),
    [
        (0, '{"name": "c4", "records": [\n]}\n'),
        (1, '{"name": "c4", "records": [\n{"id": "r0", "width": 64, "height": 64, "count": 2}\n]}\n'),
        (3, '{"name": "c4", "records": [\n'
            '{"id": "r0", "width": 64, "height": 64, "count": 2},\n'
            '{"id": "r1", "width": 640, "height": 512, "boxes": [[0.25, 0.5, 0.125, 0.1, 0.9]]},\n'
            '{"id": "r2", "width": 8, "height": 8, "points": [[0.5, 0.75, 1.0]], "frame_path": "f/2.frame"}\n'
            ']}\n'),
    ],
)
def test_manifest_exact_text(tmp_path, n, expected):
    records = (
        count_record("r0", 2),
        box_record("r1", [make_box(0.25, 0.5, 0.125, 0.1, 0.9)], width=640, height=512),
        ImageRecord("r2", 8, 8, points=(make_point(0.5, 0.75),), frame_path="f/2.frame"),
    )
    save_manifest(Dataset("c4", records[:n]), tmp_path / "m.json")
    assert (tmp_path / "m.json").read_bytes() == expected.encode("utf-8")


def test_manifest_save_holds_one_copy_of_its_text(tmp_path):
    rng = np.random.default_rng(7)
    ds = Dataset("big", tuple(box_record(f"img-{i:05d}", [make_box(*row) for row in rng.uniform(0.05, 0.95, (8, 5))])
                              for i in range(3000)))
    save_manifest(ds, tmp_path / "first.json")  # caches each record's line
    tracemalloc.start()
    try:
        save_manifest(ds, tmp_path / "m.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / "m.json").stat().st_size
    assert size > 2 * 2**20
    assert peak < size + 2.5 * 2**20  # the joined text and one encoded slice


def test_record_encoding_leaves_identity_alone(tmp_path):
    rec, twin = full_record(), full_record()
    before = (hash(rec), repr(rec))
    save_manifest(Dataset("a", (rec, count_record("x", 1))), tmp_path / "a.json")
    save_manifest(Dataset("b", (count_record("y", 2), rec)), tmp_path / "b.json")
    save_manifest(Dataset("c", (twin,)), tmp_path / "c.json")
    assert rec == twin and (hash(rec), repr(rec)) == before == (hash(twin), repr(twin))
    line_a = (tmp_path / "a.json").read_text(encoding="utf-8").split("\n")[1].rstrip(",")
    line_b = (tmp_path / "b.json").read_text(encoding="utf-8").split("\n")[2]
    line_c = (tmp_path / "c.json").read_text(encoding="utf-8").split("\n")[1]
    assert line_a == line_b == line_c


def test_manifest_pixel_coordinates(tmp_path):
    doc = {
        "name": "px",
        "coords": "pixel",
        "records": [
            {
                "id": "r0",
                "width": 200,
                "height": 100,
                "boxes": [[100.0, 50.0, 40.0, 20.0, 1.0]],
                "points": [[100.0, 50.0, 1.0]],
            }
        ],
    }
    path = tmp_path / "px.json"
    path.write_text(json.dumps(doc))
    rec = load_manifest(path).records[0]
    assert BoundingBox(*rec.boxes[0].tolist()) == BoundingBox(0.5, 0.5, 0.2, 0.2, 1.0)
    assert PointAnnotation(*rec.points[0].tolist()) == PointAnnotation(0.5, 0.5, 1.0)


def test_manifest_inconsistent_count_names_record(tmp_path):
    doc = {
        "name": "bad",
        "records": [
            {
                "id": "r-bad",
                "width": 64,
                "height": 64,
                "boxes": [[0.4, 0.4, 0.1, 0.1, 1.0], [0.6, 0.6, 0.1, 0.1, 1.0]],
                "count": 3,
            }
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match="r-bad"):
        load_manifest(path)


def test_manifest_collects_multiple_violations(tmp_path):
    doc = {
        "name": "bad2",
        "records": [
            {"id": "a", "width": 64, "height": 64, "count": -1},
            {"id": "b", "width": 64, "height": 64},
            {"id": "c", "width": 64, "height": 64, "count": 2},
        ],
    }
    path = tmp_path / "bad2.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestError) as err:
        load_manifest(path)
    assert "record 'a'" in str(err.value) and "record 'b'" in str(err.value)


@pytest.mark.parametrize("field", ["width", "height"])
def test_manifest_rejects_bool_dimensions(tmp_path, field):
    raw = {"id": "r-bool", "width": 64, "height": 64, "count": 1}
    raw[field] = True
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({"name": "b", "records": [raw]}))
    with pytest.raises(ManifestError, match="r-bool") as err:
        load_manifest(path)
    assert str(path) in str(err.value) and "True" in str(err.value)


@pytest.mark.parametrize(
    "fields",
    [
        {"boxes": 5},
        {"boxes": [[0.5, None, 0.1, 0.1, 1.0]]},
        {"boxes": [[0.5, 0.5, 0.1, 0.1, False]]},
        {"points": [[True, 0.5, 1.0]]},
        {"points": [[0.5, 0.5, 10**400]]},
        {"coords": "pixel", "width": 0, "points": [[1, 1, 1.0]]},
        {"coords": "pixel", "width": 10**400, "points": [[1, 1, 1.0]]},
        {"boxes": [["0.5", "0.5", "0.1", "0.1", "1"]]},
        {"points": [[0.5, "0.5", 1.0]]},
        {"coords": "pixel", "points": [["1", 1, 1.0]]},
    ],
)
def test_manifest_malformed_entry_names_file_and_record(tmp_path, fields):
    raw = {"id": "r-odd", "width": 64, "height": 64}
    coords = fields.pop("coords", "normalized")
    raw.update(fields)
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"name": "o", "coords": coords, "records": [raw]}))
    with pytest.raises(ManifestError, match="r-odd") as err:
        load_manifest(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize(
    "payload",
    [b'{"name": "\xff", "records": []}', b"[" * 200_000 + b"]" * 200_000],
    ids=["non-utf8", "deep-nesting"],
)
def test_manifest_undecodable_names_file(tmp_path, payload):
    path = tmp_path / "raw.json"
    path.write_bytes(payload)
    with pytest.raises(ManifestError, match="parse") as err:
        load_manifest(path)
    assert str(path) in str(err.value)


def test_manifest_rejects_duplicate_ids(tmp_path):
    doc = {
        "name": "dup",
        "records": [
            {"id": "x", "width": 64, "height": 64, "count": 1},
            {"id": "x", "width": 64, "height": 64, "count": 2},
        ],
    }
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match="duplicate"):
        load_manifest(path)


def test_manifest_max_count(tmp_path):
    doc = {"name": "mc", "records": [{"id": "r", "width": 8, "height": 8, "count": 21}]}
    path = tmp_path / "mc.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match="max_count"):
        load_manifest(path)
    assert load_manifest(path, max_count=21).records[0].count.count == 21
    for where in (path, tmp_path / "missing.json"):  # checked before the file is opened
        with pytest.raises(ValueError, match=r"^max_count must be >= 0, got -1$"):
            load_manifest(where, max_count=-1)


def test_manifest_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ManifestError, match="parse"):
        load_manifest(path)


def test_manifest_bad_coords_flag(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"name": "c", "coords": "inches", "records": []}))
    with pytest.raises(ManifestError, match="coords"):
        load_manifest(path)


def test_aligned_records_reports_differences():
    gt = Dataset("g", (count_record("a", 1), count_record("b", 2)))
    pred = Dataset("p", (count_record("a", 1), count_record("z", 2)))
    with pytest.raises(ValueError, match="align"):
        aligned_records(gt, pred)


def test_count_invariant_under_box_to_point_conversion():
    boxes = [make_box(cx=i / 10, cy=i / 10) for i in range(1, 7)]
    rec_boxes = box_record("r", boxes)
    rec_points = ImageRecord("r", 64, 64, points=boxes_to_points(rec_boxes.boxes))
    assert annotation_to_count(rec_boxes) == annotation_to_count(rec_points)


# Format-shaped manifests for comparing load_manifest's bulk checks with
# the per-entry reference loader. A quarter of the values are ones that
# numpy reads differently from json: bools turn into 1.0 and 0.0, numeric
# strings and nulls change the array's kind, a 400-digit int overflows,
# and 1e400 (written into the text in place of BIG) parses to inf.
BIG = "__1e400__"
ODD_VALUES = (True, False, None, "0.5", "1", 10**400, BIG, float("nan"), -0.0, -1, 2, 2**64)


@st.composite
def shaped_manifests(draw):
    pixel = draw(st.booleans())
    clean = draw(st.booleans())  # plain numbers in [0, 1], entries of the right length
    if clean:  # a zero is a valid coordinate or score, but not a valid size
        plain = st.floats(0.001, 1.0) | st.just(1)
        if draw(st.booleans()):
            plain = st.one_of(*[plain] * 6, st.sampled_from([0, -0.0]))
    else:
        plain = st.floats(0, 9 if pixel else 1) | st.integers(0, 2)
    value = plain if clean else st.one_of(plain, plain, plain, st.sampled_from(ODD_VALUES))

    def tier(n):
        entry = st.lists(value, min_size=n, max_size=n)
        if not clean:
            ragged = st.lists(value, max_size=6) | st.lists(st.lists(value, max_size=2), min_size=n, max_size=n)
            entry = st.one_of(entry, entry, entry, ragged, st.sampled_from(ODD_VALUES))
        entries = st.lists(entry, max_size=4)
        return entries if clean else st.one_of(entries, entries, entries, st.sampled_from([5, "", {}, "ab", None]))

    dims = st.sampled_from([1, 3, 5, 7, 9, 641])
    if not clean:
        dims = dims | st.sampled_from([0, True, 2.5, 10**400, 10**30])
    records = []
    for j in range(draw(st.integers(0, 5))):
        if not clean and draw(st.integers(0, 7)) == 0:
            records.append(draw(st.sampled_from([None, 3, "r0", [], [1, 2]])))  # not an object
            continue
        rec = {"id": draw(st.sampled_from([f"r{j}", f"r{j}", "r0", "", 7, None])) if not clean else f"r{j}"}
        rec["width"], rec["height"] = draw(dims), draw(dims)
        if not clean and draw(st.integers(0, 7)) == 0:
            del rec[draw(st.sampled_from(["width", "height"]))]
        for name, n in (("boxes", 5), ("points", 3)):
            if draw(st.booleans()):
                rec[name] = draw(tier(n))
        sizes = {len(rec[name]) for name in ("boxes", "points") if clean and name in rec}
        if not clean and draw(st.booleans()):
            rec["count"] = draw(st.integers(-1, 25) | st.sampled_from(ODD_VALUES))
        elif clean and (not sizes or len(sizes) == 1 and draw(st.booleans())):
            rec["count"] = sizes.pop() if sizes else draw(st.integers(0, 20))
        if draw(st.booleans()):
            rec["frame_path"] = draw(st.text(max_size=3) if clean else st.text(max_size=3) | st.sampled_from([3, None]))
        records.append(rec)
    doc = {"name": "shaped", "coords": "pixel" if pixel else "normalized", "records": records}
    return json.dumps(doc).replace(f'"{BIG}"', "1e400")


def load_outcome(load, path):
    """The dataset's repr (every item's fields, -0.0 apart from 0.0), or the
    ManifestError message."""
    try:
        return repr(load(path))
    except ManifestError as exc:
        return f"ManifestError: {exc}"


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=shaped_manifests())
@example(text=json.dumps({"name": "gap", "coords": "pixel", "records": [  # each box scaled by its own record
    {"id": "a", "width": 8, "height": 4, "boxes": [[4, 2, 2, 1, 0.5]]},
    {"id": "b", "width": 640, "height": 512, "points": [[320, 256, 1]]},
    {"id": "c", "width": 16, "height": 2, "boxes": [[8, 1, 4, 1, 1], [2, 1, 16, 2, 0.25]]},
]}))
@example(text=json.dumps({"name": "empty", "coords": "pixel", "records": [
    {"id": "a", "width": 8, "height": 8, "boxes": []},
    {"id": "b", "width": 4, "height": 2, "boxes": [[2, 1, 1, 1, 1]], "count": 1},
]}))
@example(text=json.dumps({"name": "bool", "records": [
    {"id": "a", "width": 8, "height": 8, "boxes": [[0.5, 0.5, 0.1, 0.1, 1.0]]},
    {"id": "b", "width": 8, "height": 8, "boxes": [[0.5, 0.5, 0.1, 0.1, True]]},
]}))
def test_bulk_load_agrees_with_per_entry_load(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("shaped") / "m.json"
    path.write_text(text, encoding="utf-8")
    assert load_outcome(load_manifest, path) == load_outcome(oracles.per_entry_load_manifest, path)


@pytest.mark.parametrize(
    "records",
    [
        [{"id": "a", "width": 8, "height": 8, "boxes": [[0.5, 0.5, 0.1, 0.1, 2.0]], "points": 5}],
        [{"id": "a", "width": 8, "height": 8, "boxes": [[0.5, 0.5, 0.1, 0.1, 1.0]], "points": 5}],
        [{"id": "a", "width": 8, "height": 8, "boxes": [[0.5, 0.5, 0.1, 0.1, 1.0]], "points": [[1, 2, True]]}],
        [{"id": "a", "width": 8, "height": 8, "boxes": {}, "points": ""}],
        [{"id": "a", "width": 10**400, "height": 8, "boxes": []}, {"id": "b", "width": 8, "height": 8, "count": 1}],
        [{"id": "a", "width": 10**400, "height": 8, "boxes": [[1, 1, 1, 1, 1.0]]}],
        [{"id": "a", "width": 10**31, "height": 8, "boxes": [[10**30, 1, 10**30, 1, 1.0]]}],
        [{"id": "a", "width": 8, "height": 8, "boxes": [[0.5, 0.5, 0.1, 0.1, 1.0]], "frame_path": "true"}],
        [{"id": "a", "width": 8, "height": 8, "boxes": [[0.5, 0.5, 0, 0.1, 1.0]]}],
        [{"id": "a", "width": 8, "height": 8, "boxes": [[0.5, 0.5, 0.1, -0.0, 1.0]]}],
        [{"id": "a", "width": 8, "height": 8, "boxes": [[-0.0, 0, 0.1, 0.1, 0]], "points": [[-0.0, 0, 0]]}],
        [[0.5, 0.5, 0.1, 0.1, 1.0], {"id": "b", "width": 8, "height": 8, "count": 1}],
        [{"id": "a", "height": 8, "count": 1}, {"id": "b", "width": 8, "height": 8, "boxes": [[9, 1, 1, 1, 1.0]]}],
        {"name": "", "records": [{"id": "a", "width": 8, "height": 8, "points": [[0.5, 0.5, 1.0]]}]},
        [{"id": "a", "width": 8, "height": 8, "count": 1}, {"id": "a", "width": 8, "height": 8, "count": 2}],
        [{"id": "a", "width": 8, "height": 8, "count": 21}, {"id": "b", "width": 8, "height": 8, "count": 20}],
    ],
    ids=[
        "bad-box-outranks-bad-points-tier", "points-tier-not-iterable", "bool-point", "empty-dict-and-string-tiers",
        "huge-width-without-entries", "huge-width-with-entries", "huge-ints-that-divide-into-range", "true-in-a-string",
        "zero-width", "negative-zero-height", "zero-coordinates-and-scores", "record-not-an-object",
        "record-without-width", "empty-name", "duplicate-id", "count-above-max-count",
    ],
)
@pytest.mark.parametrize("coords", ["normalized", "pixel"])
def test_bulk_load_agrees_with_per_entry_load_on_edge_cases(tmp_path, records, coords):
    """``records`` is the records list, or the whole document when a case
    sets the name too."""
    doc = records if isinstance(records, dict) else {"name": "edge", "records": records}
    path = tmp_path / "m.json"
    path.write_text(json.dumps({**doc, "coords": coords}))
    assert load_outcome(load_manifest, path) == load_outcome(oracles.per_entry_load_manifest, path)


def test_bulk_load_gives_each_record_a_read_only_view_of_one_array(tmp_path):
    boxes = [(make_box(score=0.5),), (), None, (make_box(cx=0.25), make_box(cy=0.75))]
    counts = [None, None, CountLabel(0), None]
    ds = Dataset("views", tuple(ImageRecord(i, 64, 64, boxes=b, count=c) for i, b, c in zip("abcd", boxes, counts)))
    save_manifest(ds, tmp_path / "m.json")
    loaded = load_manifest(tmp_path / "m.json")
    assert loaded == ds
    first, last = loaded.records[0].boxes, loaded.records[-1].boxes
    assert first.base is last.base and np.shares_memory(first.base, last)
    assert not (first.flags.writeable or last.flags.writeable or first.base.flags.writeable)
    assert loaded.records[1].boxes.shape == (0, 5) and loaded.records[2].boxes is None


def test_only_a_bad_manifest_takes_the_per_record_path(tmp_path, monkeypatch):
    """A valid file never reaches the per-record builder, so a change that
    sent every load down that slower path would fail here."""

    class PerRecordPath(Exception):
        pass

    def builder(*args):
        raise PerRecordPath

    monkeypatch.setattr(corpus, "_record_of", builder)
    ds = make_dataset(30)
    save_manifest(ds, tmp_path / "counts.json")
    assert load_manifest(tmp_path / "counts.json") == ds
    (tmp_path / "pixel.json").write_text(json.dumps({"name": "p", "coords": "pixel", "records": [
        {"id": "a", "width": 8, "height": 4, "boxes": [[4, 2, 2, 1, 0.5]], "points": [[4, 2, 1]], "frame_path": "f"},
    ]}))
    assert load_manifest(tmp_path / "pixel.json").records[0].boxes.tolist() == [[0.5, 0.5, 0.25, 0.25, 0.5]]
    (tmp_path / "bad.json").write_text(json.dumps({"name": "b", "records": [{"id": "a", "width": 8, "height": 8}]}))
    with pytest.raises(PerRecordPath):
        load_manifest(tmp_path / "bad.json")
