"""Binarization, connected components, and count-guided point extraction."""

import hashlib
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ircount import Grid
from ircount._gridio import GridFormatError
from ircount.assignment import match_points
from ircount.camloc import (
    CAM_RANGE,
    Component,
    LocateResult,
    binarize,
    find_components,
    locate_people,
    read_activation_map,
    sample_inside,
    write_activation_map,
)
from ircount.cli import run
from ircount.harness import render_blobs
from oracles import flood_fill_components, union_find_components

bool_masks = arrays(np.bool_, st.tuples(st.integers(1, 12), st.integers(1, 12)))


def pixel_map(width, height, coords, value=255.0):
    grid = np.zeros((height, width))
    for x, y in coords:
        grid[y, x] = value
    return Grid(width, height, grid, CAM_RANGE)


def square(x0, y0, side=3):
    return [(x0 + dx, y0 + dy) for dx in range(side) for dy in range(side)]


def test_activation_map_rejects_out_of_scale():
    with pytest.raises(ValueError, match="255"):
        Grid(2, 1, np.array([0.0, 300.0]), CAM_RANGE)
    with pytest.raises(ValueError, match="255"):
        Grid(2, 1, np.array([-1.0, 0.0]), CAM_RANGE)


def test_read_activation_map_out_of_scale_names_the_file(tmp_path):
    path = tmp_path / "hot.cam"
    path.write_text("CAM v1\n2 1\n0.0 300.0\n")
    with pytest.raises(GridFormatError, match="255") as err:
        read_activation_map(path)
    assert str(path) in str(err.value)


def test_binarize_all_zero_empty():
    amap = Grid(4, 4, np.zeros((4, 4)), CAM_RANGE)
    assert not binarize(amap, 27.0).any()


def test_binarize_full():
    amap = Grid(4, 4, np.full((4, 4), 255.0), CAM_RANGE)
    assert binarize(amap, 27.0).all()


def test_binarize_threshold_strict():
    amap = Grid(3, 1, np.array([10.0, 27.0, 30.0]), CAM_RANGE)
    assert binarize(amap, 27.0).ravel().tolist() == [False, False, True]


@given(bool_masks, st.floats(0, 254), st.floats(0, 254))
@settings(max_examples=50)
def test_binarize_monotone_in_threshold(mask, t1, t2):
    amap = Grid(mask.shape[1], mask.shape[0], mask.astype(float) * 255.0, CAM_RANGE)
    low, high = min(t1, t2), max(t1, t2)
    assert not (binarize(amap, high) & ~binarize(amap, low)).any()


def test_find_components_empty():
    assert find_components(np.zeros((5, 5), dtype=bool)) == []


def test_find_components_two_squares():
    amap = pixel_map(16, 16, square(2, 2) + square(10, 10))
    comps = find_components(binarize(amap, 27.0))
    assert [c.area for c in comps] == [9, 9]
    assert comps[0].centroid == ((3 + 0.5) / 16, (3 + 0.5) / 16)
    assert comps[1].centroid == ((11 + 0.5) / 16, (11 + 0.5) / 16)


def test_find_components_diagonal_chain_is_one_component():
    coords = [(i, i) for i in range(6)]
    comps = find_components(binarize(pixel_map(8, 8, coords), 27.0))
    assert len(comps) == 1
    assert comps[0].area == 6


def test_find_components_order_uses_overall_min_x():
    # Both components start on row 1. The snaking one is discovered second
    # during the scan (first pixel at x=5) but reaches x=0 on a later row,
    # so the (min y, min x) ordering must put it first.
    snake = [(5, 1), (5, 2), (4, 3), (3, 4), (2, 5), (1, 6), (0, 7)]
    other = [(2, 1), (2, 2)]
    comps = find_components(binarize(pixel_map(10, 10, snake + other), 27.0))
    assert len(comps) == 2
    assert comps[0].scan_key() == (1, 0)
    assert comps[1].scan_key() == (1, 2)
    assert comps[0].pixels == frozenset(snake)


@given(bool_masks)
@settings(max_examples=60)
def test_find_components_matches_union_find_oracle(mask):
    comps = find_components(mask)
    expected = union_find_components(mask)
    assert [c.pixels for c in comps] == expected
    assert sum(c.area for c in comps) == int(mask.sum())


def _same_components(mask):
    got = find_components(mask)
    want = flood_fill_components(mask)
    assert [c.area for c in got] == [c.area for c in want]
    assert [tuple(map(float.hex, c.centroid)) for c in got] == [tuple(map(float.hex, c.centroid)) for c in want]
    assert [c.scan_key() for c in got] == [c.scan_key() for c in want]
    assert [c.pixels for c in got] == [c.pixels for c in want]
    for c in got:  # sampling indexes the pixels in (x, y) order
        assert list(zip(c.xs.tolist(), c.ys.tolist())) == sorted(c.pixels)
    return got


def _shape(max_side):
    return st.tuples(st.integers(1, max_side), st.integers(1, max_side))


def _diagonal_only(mask):
    """Keep one colour of a checkerboard, so pixels touch only at corners."""
    ys, xs = np.indices(mask.shape)
    return mask & ((xs + ys) % 2 == 0)


def _snake(height, width, diagonal_turns):
    """Full rows on even lines, joined at alternating ends by one pixel.
    With diagonal turns the rows stop one short of each turn, so a turn
    touches its rows only at corners."""
    mask = np.zeros((height, width), dtype=bool)
    mask[::2] = True
    for i, y in enumerate(range(1, height, 2)):
        x = width - 1 if i % 2 == 0 else 0
        mask[y, x] = True
        if diagonal_turns and width > 2:
            mask[y - 1, x] = False
            if y + 1 < height:
                mask[y + 1, x] = False
    return mask


@st.composite
def tied_masks(draw):
    """Two staircases that both start on row 0 and both reach column 0
    lower down, so they share the scan key (0, 0), above random rows."""
    k = draw(st.integers(2, 6))
    noise = draw(arrays(np.bool_, st.tuples(st.integers(0, 8), st.just(2 * k + 1))))
    top = np.zeros((2 * k + 2, 2 * k + 1), dtype=bool)
    for i in range(k + 1):
        top[i, k - i] = True  # from (k, 0) down-left to (0, k)
    top[: 2 * k, 2 * k] = True  # down column 2k ...
    top[2 * k, : 2 * k] = True  # ... then left along row 2k to x = 0
    return np.vstack([top, noise])


component_masks = st.one_of(
    arrays(np.bool_, _shape(24)),
    arrays(np.bool_, _shape(24)).map(_diagonal_only),
    st.integers(1, 60).map(lambda n: np.ones((1, n), dtype=bool)),
    st.integers(1, 60).map(lambda n: np.ones((n, 1), dtype=bool)),
    arrays(np.bool_, st.one_of(st.tuples(st.just(1), st.integers(1, 60)), st.tuples(st.integers(1, 60), st.just(1)))),
    _shape(24).map(lambda s: np.ones(s, dtype=bool)),
    st.builds(_snake, st.integers(1, 24), st.integers(1, 24), st.booleans()),
    tied_masks(),
)


@given(component_masks)
@settings(max_examples=300)
def test_find_components_matches_flood_fill(mask):
    _same_components(mask)


def test_find_components_tied_scan_keys_keep_discovery_order():
    # Both components have scan key (0, 0). In the first mask the lone
    # pixel is met first; in the second, the staircase starting at x=3 is
    # met before the hook starting at x=6, and neither contains (0, 0).
    lone = pixel_map(6, 6, [(0, 0), (2, 0), (3, 1), (2, 2), (1, 3), (0, 4)])
    comps = _same_components(binarize(lone, 27.0))
    assert [c.area for c in comps] == [1, 5]
    stairs = [(3, 0), (2, 1), (1, 2), (0, 3)]
    hook = [(6, y) for y in range(6)] + [(x, 6) for x in range(6)]
    comps = _same_components(binarize(pixel_map(8, 8, hook + stairs), 27.0))
    assert [c.scan_key() for c in comps] == [(0, 0), (0, 0)]
    assert comps[0].pixels == frozenset(stairs)


def test_find_components_partition_matches_scipy():
    ndimage = pytest.importorskip("scipy.ndimage")
    rng = np.random.default_rng(6)
    shapes = [(1, 1), (1, 40), (40, 1), (9, 13), (64, 48), (128, 160), (512, 640)]
    for i, shape in enumerate(shapes * 4):
        mask = rng.random(shape) < (0.1, 0.3, 0.52, 0.8)[i // len(shapes)]
        labels, count = ndimage.label(mask, structure=np.ones((3, 3)))
        comps = find_components(mask)
        ours = np.zeros(shape, dtype=int)
        for k, comp in enumerate(comps, 1):
            ours[comp.ys, comp.xs] = k
        assert len(comps) == count
        assert np.array_equal(ours > 0, mask)
        # Same partition: each label pairs with exactly one label of the other.
        assert np.unique(ours[mask] * (count + 1) + labels[mask]).size == count


def test_component_from_pixels_validates():
    with pytest.raises(ValueError):
        Component.from_pixels([], 4, 4)
    with pytest.raises(ValueError, match="distinct"):
        Component.from_pixels([(1, 1), (2, 1), (1, 1)], 4, 4)


def test_sample_inside_single_pixel():
    comp = Component.from_pixels([(2, 3)], 8, 8)
    pts = sample_inside(comp, 1, seed=5)
    assert pts == [pts[0]]
    assert (pts[0].cx, pts[0].cy) == ((2 + 0.5) / 8, (3 + 0.5) / 8)


def test_sample_inside_full_area_returns_all_pixels():
    pixels = square(1, 1, side=2)
    comp = Component.from_pixels(pixels, 8, 8)
    pts = sample_inside(comp, comp.area, seed=0)
    got = {(round(p.cx * 8 - 0.5), round(p.cy * 8 - 0.5)) for p in pts}
    assert got == set(pixels)


def test_sample_inside_deterministic_per_seed():
    comp = Component.from_pixels(square(0, 0, side=4), 8, 8)
    assert sample_inside(comp, 5, seed=11) == sample_inside(comp, 5, seed=11)
    assert sample_inside(comp, 5, seed=11) != sample_inside(comp, 5, seed=12)


def test_sample_inside_with_replacement_when_oversampling():
    comp = Component.from_pixels([(0, 0), (1, 0)], 4, 4)
    pts = sample_inside(comp, 7, seed=3)
    assert len(pts) == 7


def separated_scene(n, seed=0):
    rng = random.Random(seed)
    centers = []
    while len(centers) < n:
        cand = (rng.randint(6, 57), rng.randint(6, 57))
        if all((cand[0] - cx) ** 2 + (cand[1] - cy) ** 2 >= 16**2 for cx, cy in centers):
            centers.append(cand)
    return centers, render_blobs(64, 64, centers, 2.0)


def test_locate_people_zero_instances():
    _, amap = separated_scene(3)
    assert locate_people(amap, 27.0, 0) == LocateResult((), "none")


def test_locate_people_exact_branch_recovers_centers():
    centers, amap = separated_scene(3, seed=4)
    result = locate_people(amap, 27.0, 3, seed=0)
    assert result.branch == "exact"
    assert not result.degenerate
    planted = [((cx + 0.5) / 64, (cy + 0.5) / 64) for cx, cy in centers]
    match = match_points(planted, list(result.points))
    assert result.points and match.unmatched_gt == match.unmatched_pred == 0
    assert max(d for _, _, d in match.pairs) <= 1.5 / 64


def test_locate_people_largest_branch_picks_biggest_areas():
    big = [(12, 12), (48, 48)]
    small = [(12, 48), (48, 12), (30, 30)]
    amap = render_blobs(64, 64, big + small, [3.0, 3.0, 1.0, 1.0, 1.0])
    result = locate_people(amap, 27.0, 2, seed=0)
    assert result.branch == "largest"
    got = sorted((round(p.cx * 64 - 0.5), round(p.cy * 64 - 0.5)) for p in result.points)
    assert got == sorted(big)


def test_locate_people_largest_branch_breaks_area_ties_by_scan_order():
    # snake and bar both cover 11 pixels. A raster scan meets bar first, at
    # (2, 1), but snake reaches x = 0 on a later row, so (min y, min x)
    # puts snake first; the lone pixel is never chosen.
    snake = [(9, 1), (9, 2), (8, 3), (7, 4), (6, 5), (5, 6), (4, 7), (3, 8), (2, 9), (1, 10), (0, 11)]
    bar = [(x, y) for x in range(2, 7) for y in (1, 2)] + [(2, 3)]
    block = square(12, 12, side=4)
    amap = pixel_map(20, 20, snake + bar + block + [(18, 18)])
    for count, chosen in ((2, [block, snake]), (3, [block, snake, bar])):
        result = locate_people(amap, 27.0, count, seed=0)
        assert result.branch == "largest"
        got = [(p.cx, p.cy) for p in result.points]
        assert got == [Component.from_pixels(c, 20, 20).centroid for c in chosen]


def test_locate_people_split_branch_membership_and_count():
    amap = render_blobs(64, 64, [(32, 32)], 4.0)
    result = locate_people(amap, 27.0, 3, seed=9)
    assert result.branch == "split"
    assert len(result.points) == 3
    comp = find_components(binarize(amap, 27.0))[0]
    for p in result.points:
        pixel = (int(p.cx * 64), int(p.cy * 64))
        assert pixel in comp.pixels


def test_locate_people_split_branch_deterministic():
    amap = render_blobs(64, 64, [(20, 20), (44, 44)], 3.0)
    a = locate_people(amap, 27.0, 7, seed=21)
    b = locate_people(amap, 27.0, 7, seed=21)
    assert a == b
    assert len(a.points) == 7


def test_locate_people_exact_and_largest_ignore_seed():
    centers, amap = separated_scene(4, seed=8)
    assert locate_people(amap, 27.0, 4, seed=0) == locate_people(amap, 27.0, 4, seed=99)
    assert locate_people(amap, 27.0, 2, seed=0) == locate_people(amap, 27.0, 2, seed=99)


def test_locate_people_empty_mask_fallback():
    grid = np.zeros((8, 8))
    grid[5, 6] = 20.0  # below threshold, still the argmax
    amap = Grid(8, 8, grid, CAM_RANGE)
    result = locate_people(amap, 27.0, 3, seed=0)
    assert result.degenerate and result.branch == "empty-mask"
    assert len(result.points) == 3
    assert {(p.cx, p.cy) for p in result.points} == {((6 + 0.5) / 8, (5 + 0.5) / 8)}


def test_locate_people_rejects_negative_count():
    _, amap = separated_scene(1)
    with pytest.raises(ValueError):
        locate_people(amap, 27.0, -1)


@given(st.integers(0, 12), st.integers(0, 10_000))
@settings(max_examples=60)
def test_locate_people_always_returns_requested_count(num, seed):
    amap = render_blobs(32, 32, [(8, 8), (24, 24), (8, 24)], 2.0)
    result = locate_people(amap, 27.0, num, seed)
    assert len(result.points) == num


def test_cam_file_round_trip(tmp_path):
    _, amap = separated_scene(2, seed=3)
    path = tmp_path / "m.cam"
    write_activation_map(amap, path)
    back = read_activation_map(path)
    assert np.array_equal(back.values, amap.values)
    assert path.read_text().startswith("CAM v1\n64 64\n")


def pinned_map(seed):
    """A seeded 160x128 map: noise below the threshold, five elliptical
    blobs that may merge, and sparse speckle that makes many one-pixel and
    diagonal components."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 20.0, size=(128, 160))
    ys, xs = np.mgrid[0:128, 0:160]
    for _ in range(5):
        cx, cy, ax, ay = rng.uniform((10, 10, 4, 4), (150, 118, 16, 12))
        inside = ((xs - cx) / ax) ** 2 + ((ys - cy) / ay) ** 2 <= 1.0
        values[inside] = rng.uniform(40.0, 255.0, size=int(inside.sum()))
    values[rng.random((128, 160)) < 0.003] = 200.0
    return Grid(160, 128, values, CAM_RANGE)


def locate_cam_output(tmp_path, seed, count, threshold):
    write_activation_map(pinned_map(seed), tmp_path / "m.cam")
    out = tmp_path / "points.json"
    argv = ["locate-cam", "--map", str(tmp_path / "m.cam"), "--count", str(count),
            "--threshold", str(threshold), "--seed", str(seed), "--out", str(out)]
    assert run(argv) == 0
    return out.read_bytes()


# Digests of the locate-cam JSON written before the components became label
# arrays: (map seed, --count, --threshold, branch, sha256 of the output file).
PINNED_LOCATE_CAM = [
    (1, 64, 27, "exact", "d579e59d3ecd4a22ca7cf6f8e6cd79be488ccc82d0985a292f69b9e4f0d80961"),
    (1, 5, 27, "largest", "9d2a17d8013168ae9af35808676f8f7e5764e7c31c0f770492ce64d482e616d9"),
    (1, 94, 27, "split", "7ed3ecf1cc1831b2da41979613bd10e99a089ec3b67e91a6023e99f42215fecd"),
    (1, 2000, 27, "split", "fb75cd47d47815c6aa3680dda5553c8534bb5e37625f49a074ffba9068498f54"),
    (1, 4, 255, "empty-mask", "3f237331593995b8375bb16c0a4c62a1bdc1e82f5fd84b72307aedd96377e2aa"),
    (2, 56, 27, "exact", "a36f8148a9a9932e2a7050424f6a54101ad1d3d9d9dabe126bed06539c2f0625"),
    (2, 5, 27, "largest", "c38bf20023cd5df084a9c0121df5a2db0f23c2145ae62938aa0e522fbbeb6d20"),
    (2, 86, 27, "split", "a1ef4de6294bc3455a0d4f0e860fd4e964683f2b661c274ce10686f1560460a3"),
    (2, 2000, 27, "split", "bd3ec868059663427de49e7651b53b44ebd250762acb045b9e73566b9d621850"),
    (2, 4, 255, "empty-mask", "26e2cdd42175f9486858bec6ae9cfe9d6d97843702ba2e4464df261984bcef84"),
]


@pytest.mark.parametrize("seed,count,threshold,branch,digest", PINNED_LOCATE_CAM)
def test_locate_cam_output_is_pinned(tmp_path, seed, count, threshold, branch, digest):
    output = locate_cam_output(tmp_path, seed, count, threshold)
    assert json.loads(output)["branch"] == branch
    assert hashlib.sha256(output).hexdigest() == digest
