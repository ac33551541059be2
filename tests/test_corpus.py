"""Data model, manifest IO, converters, and splitting."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import box_record, count_record, make_box, make_dataset, make_point
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


def test_record_consistent_tiers_ok():
    rec = ImageRecord("r1", 64, 64, boxes=(make_box(), make_box()), count=CountLabel(2))
    assert rec.count.count == 2


def test_dataset_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="duplicate"):
        Dataset("d", (count_record("a", 1), count_record("a", 2)))


def test_boxes_to_points_empty():
    assert boxes_to_points([]) == []


def test_boxes_to_points_keeps_centers_scores_order():
    boxes = [
        make_box(0.5, 0.5, 0.2, 0.4, score=1.0),
        make_box(0.1, 0.9, 0.05, 0.05, score=0.25),
        make_box(0.7, 0.2, 0.3, 0.1, score=0.5),
    ]
    points = boxes_to_points(boxes)
    assert len(points) == 3
    for b, p in zip(boxes, points):
        assert (p.cx, p.cy, p.score) == (b.cx, b.cy, b.score)


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
    assert rec.boxes[0] == BoundingBox(0.5, 0.5, 0.2, 0.2, 1.0)
    assert rec.points[0] == PointAnnotation(0.5, 0.5, 1.0)


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
    rec_points = ImageRecord("r", 64, 64, points=tuple(boxes_to_points(boxes)))
    assert annotation_to_count(rec_boxes) == annotation_to_count(rec_points)
