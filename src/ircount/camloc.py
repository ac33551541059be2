"""Person localization from class activation maps.

Given a classifier's activation map and its predicted person count, the
map is binarized, split into connected components, and the components
yield one coordinate per person: component centroids when counts line up,
the largest components when there are too many, and seeded in-component
samples when people share a component.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from ircount._gridio import Grid, checked_grid, read_grid, write_grid
from ircount.corpus import PointAnnotation
from ircount.metrics import round_half_away

CAM_TAG = "CAM"
CAM_RANGE = (0.0, 255.0)  # activation maps are on a 0-255 scale
DEFAULT_BINARY_THRESHOLD = 27.0  # on the 0-255 map scale


@dataclass(frozen=True, eq=False)
class Component:
    """An 8-connected region of the binarized map.

    ``xs`` and ``ys`` hold the member pixels' grid coordinates in (x, y)
    lexicographic order, and ``pixels`` builds their set on demand;
    ``centroid`` is the pixel mean mapped to normalized coordinates via
    (p + 0.5) / dimension.
    """

    xs: np.ndarray = field(repr=False)
    ys: np.ndarray = field(repr=False)
    area: int
    centroid: tuple[float, float]
    width: int
    height: int

    @classmethod
    def from_pixels(cls, pixels: Sequence[tuple[int, int]], width: int, height: int) -> "Component":
        if not pixels:
            raise ValueError("component must contain at least one pixel")
        if len(set(pixels)) != len(pixels):
            raise ValueError("component pixels must be distinct")
        ordered = sorted(pixels)
        xs = [p[0] for p in ordered]
        ys = [p[1] for p in ordered]
        cx = (sum(xs) / len(pixels) + 0.5) / width
        cy = (sum(ys) / len(pixels) + 0.5) / height
        return cls(np.array(xs), np.array(ys), len(pixels), (cx, cy), width, height)

    @property
    def pixels(self) -> frozenset[tuple[int, int]]:
        return frozenset(zip(self.xs.tolist(), self.ys.tolist()))

    def scan_key(self) -> tuple[int, int]:
        """Deterministic ordering key: (min y, min x) over member pixels."""
        return (int(self.ys.min()), int(self.xs[0]))


@dataclass(frozen=True)
class LocateResult:
    """Points extracted from an activation map.

    ``branch`` records which extraction path ran; ``degenerate`` flags the
    empty-mask fallback where all points collapse onto the map argmax.
    """

    points: tuple[PointAnnotation, ...]
    branch: str
    degenerate: bool = False


def binarize(amap: Grid, threshold: float) -> np.ndarray:
    """Boolean mask of pixels strictly above the threshold."""
    if not np.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold!r}")
    return amap.values > threshold


def _root_runs(mask: np.ndarray, runs: np.ndarray, count: int) -> np.ndarray:
    """For each horizontal run, the id of the first run of its 8-connected
    component; ``runs`` numbers the mask's runs 0..count-1 in raster order.

    Union-find over int32 run ids: each round hooks roots to the smaller
    root across the links left between rows, one direction at a time
    (``np.minimum.at``), and compresses by pointer jumping, in the manner
    of Shiloach & Vishkin (J. Algorithms, 1982). Trees only merge, so a
    link whose ends share a root is dropped for good.
    """
    up, down = mask[:-1], mask[1:]
    # One link per touching pair of runs is enough: a vertical link only
    # where the pair to its left is not linked too, a diagonal one only
    # where no vertical link joins the same two runs.
    vertical = up & down
    vertical[:, 1:] &= ~vertical[:, :-1]
    down_right = up[:, :-1] & down[:, 1:] & ~down[:, :-1] & ~up[:, 1:]
    down_left = up[:, 1:] & down[:, :-1] & ~up[:, :-1] & ~down[:, 1:]
    links = [
        (runs[:-1][vertical], runs[1:][vertical]),
        (runs[:-1, :-1][down_right], runs[1:, 1:][down_right]),
        (runs[:-1, 1:][down_left], runs[1:, :-1][down_left]),
    ]
    parent = np.arange(count, dtype=np.int32)
    while links:
        remaining = []
        for a, b in links:
            ra, rb = parent[a], parent[b]
            apart = ra != rb
            if not apart.any():
                continue
            ra, rb = ra[apart], rb[apart]
            np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
            while not np.array_equal(jumped := parent[parent], parent):
                parent = jumped
            remaining.append((a[apart], b[apart]))
        links = remaining
    return parent


def find_components(mask: np.ndarray) -> list[Component]:
    """8-connected components of a boolean mask, ordered by (min y, min x).

    Components with equal keys keep raster order of their first pixel.
    """
    mask = np.asarray(mask, dtype=bool)
    height, width = mask.shape
    fg = np.flatnonzero(mask)
    if fg.size == 0:
        return []
    run_start = np.ones(fg.size, dtype=bool)
    run_start[1:] = (np.diff(fg) != 1) | (fg[1:] % width == 0)
    runs = np.zeros(mask.shape, dtype=np.int32)
    runs[mask] = np.cumsum(run_start, dtype=np.int32) - 1
    starts = np.flatnonzero(run_start)
    run_y, run_x = np.divmod(fg[starts], width)
    run_len = np.diff(starts, append=fg.size)
    root = _root_runs(mask, runs, run_len.size)
    # Labels follow the root runs, that is the components' first pixels,
    # in raster order: the order in which a raster scan meets them.
    is_root = root == np.arange(root.size)
    label = (np.cumsum(is_root, dtype=np.int32) - 1)[root]
    area = np.bincount(label, weights=run_len).astype(np.int64)
    # A run of length n from x covers x, ..., x + n - 1; the sums are exact.
    cx = (np.bincount(label, weights=run_len * run_x + run_len * (run_len - 1) // 2) / area + 0.5) / width
    cy = (np.bincount(label, weights=run_len * run_y) / area + 0.5) / height
    min_y = run_y[is_root]

    # Column-major order is (x, y) lexicographic; a stable sort by label
    # keeps it within each component. The components keep these arrays,
    # so they are int32.
    by_label = np.argsort(label[runs.T[mask.T]], kind="stable")
    col_xs, col_ys = (c.astype(np.int32)[by_label] for c in np.nonzero(mask.T))
    bounds = np.cumsum(area)[:-1]
    min_x = col_xs[np.concatenate(([0], bounds))]
    comp_xs, comp_ys = np.split(col_xs, bounds), np.split(col_ys, bounds)

    order = np.lexsort((np.arange(area.size), min_x, min_y))
    areas, cxs, cys = area.tolist(), cx.tolist(), cy.tolist()
    return [
        Component(comp_xs[k], comp_ys[k], areas[k], (cxs[k], cys[k]), width, height)
        for k in order.tolist()
    ]


def _pixel_point(px: int, py: int, width: int, height: int) -> PointAnnotation:
    return PointAnnotation((px + 0.5) / width, (py + 0.5) / height)


def _centroid_point(comp: Component) -> PointAnnotation:
    return PointAnnotation(comp.centroid[0], comp.centroid[1])


def _sample_pixels(comp: Component, n: int, rng: random.Random) -> list[PointAnnotation]:
    # random picks the same indices from a range as from a list of its length.
    indices = range(comp.area)
    chosen = rng.sample(indices, n) if n <= comp.area else rng.choices(indices, k=n)
    return [
        _pixel_point(px, py, comp.width, comp.height)
        for px, py in zip(comp.xs[chosen].tolist(), comp.ys[chosen].tolist())
    ]


def sample_inside(comp: Component, n: int, seed: int) -> list[PointAnnotation]:
    """Draw n member pixels: without replacement when the area allows, with otherwise."""
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    return _sample_pixels(comp, n, random.Random(seed))


def locate_people(
    amap: Grid,
    binary_threshold: float,
    num_instances: int,
    seed: int = 0,
) -> LocateResult:
    """Extract exactly ``num_instances`` person locations from an activation map.

    Three component-count regimes:
      * equal: every component contributes its centroid;
      * surplus components: the largest ``num_instances`` by area win
        (ties by scan order);
      * deficit: people are apportioned to components by area share;
        single-person components give their centroid, crowded ones give
        seeded uniform pixel samples, and the output is trimmed or topped
        up from the largest component to land exactly on the count.

    An above-threshold-empty map with a positive count falls back to
    repeating the map argmax, flagged via ``degenerate``.
    """
    if num_instances < 0:
        raise ValueError(f"num_instances must be >= 0, got {num_instances}")
    if num_instances == 0:
        return LocateResult((), "none")
    comps = find_components(binarize(amap, binary_threshold))
    if not comps:
        flat_idx = int(np.argmax(amap.values))
        py, px = divmod(flat_idx, amap.width)
        point = _pixel_point(px, py, amap.width, amap.height)
        return LocateResult((point,) * num_instances, "empty-mask", degenerate=True)

    if num_instances == len(comps):
        return LocateResult(tuple(_centroid_point(c) for c in comps), "exact")

    if num_instances < len(comps):
        by_area = sorted(comps, key=lambda c: -c.area)
        points = tuple(_centroid_point(c) for c in by_area[:num_instances])
        return LocateResult(points, "largest")

    rng = random.Random(seed)
    total_area = sum(c.area for c in comps)
    avg = total_area / num_instances
    emitted: list[PointAnnotation] = []
    for comp in comps:
        share = round_half_away(comp.area / avg)
        if share == 0:
            continue
        if share == 1:
            emitted.append(_centroid_point(comp))
        else:
            emitted.extend(_sample_pixels(comp, share, rng))
    if len(emitted) > num_instances:
        emitted = emitted[:num_instances]
    elif len(emitted) < num_instances:
        largest = max(comps, key=lambda c: c.area)
        emitted.extend(_sample_pixels(largest, num_instances - len(emitted), rng))
    return LocateResult(tuple(emitted), "split")


def read_activation_map(path: str | Path) -> Grid:
    """Read a map from the CAM v1 text container."""
    return checked_grid(path, read_grid(path, CAM_TAG), CAM_RANGE)


def write_activation_map(amap: Grid, path: str | Path) -> None:
    """Write a map to the CAM v1 text container."""
    write_grid(path, CAM_TAG, amap.values)
