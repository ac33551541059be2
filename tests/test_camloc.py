"""Binarization, connected components, and count-guided point extraction."""

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
from ircount.harness import render_blobs

bool_masks = arrays(np.bool_, st.tuples(st.integers(1, 12), st.integers(1, 12)))


def union_find_components(mask):
    """Independent labeling oracle via union-find over 8-neighbor edges."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    parent = {}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for y in range(h):
        for x in range(w):
            if mask[y, x]:
                parent[(x, y)] = (x, y)
    for y in range(h):
        for x in range(w):
            if not mask[y, x]:
                continue
            for dx, dy in ((1, 0), (0, 1), (1, 1), (-1, 1)):
                nx, ny = x + dx, y + dy
                if 0 <= nx < w and 0 <= ny < h and mask[ny, nx]:
                    union((x, y), (nx, ny))
    groups = {}
    for pix in parent:
        groups.setdefault(find(pix), set()).add(pix)
    return sorted(
        (frozenset(g) for g in groups.values()),
        key=lambda g: (min(y for _, y in g), min(x for x, _ in g)),
    )


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


def test_component_from_pixels_validates():
    with pytest.raises(ValueError):
        Component.from_pixels([], 4, 4)


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
