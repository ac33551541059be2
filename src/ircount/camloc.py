"""Person localization from class activation maps.

Given a classifier's activation map and its predicted person count, the
map is binarized, split into connected components, and the components
yield one coordinate per person: component centroids when counts line up,
the largest components when there are too many, and seeded in-component
samples when people share a component.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ircount._gridio import Grid, checked_grid, read_grid, write_grid
from ircount.corpus import PointAnnotation
from ircount.metrics import round_half_away

CAM_TAG = "CAM"
CAM_RANGE = (0.0, 255.0)  # activation maps are on a 0-255 scale
DEFAULT_BINARY_THRESHOLD = 27.0  # on the 0-255 map scale


@dataclass(frozen=True)
class Component:
    """An 8-connected region of the binarized map.

    ``pixels`` holds (x, y) grid coordinates; ``centroid`` is the pixel
    mean mapped to normalized coordinates via (p + 0.5) / dimension.
    """

    pixels: frozenset[tuple[int, int]]
    area: int
    centroid: tuple[float, float]
    width: int
    height: int

    @classmethod
    def from_pixels(cls, pixels: Sequence[tuple[int, int]], width: int, height: int) -> "Component":
        if not pixels:
            raise ValueError("component must contain at least one pixel")
        xs = [p[0] for p in pixels]
        ys = [p[1] for p in pixels]
        cx = (sum(xs) / len(pixels) + 0.5) / width
        cy = (sum(ys) / len(pixels) + 0.5) / height
        return cls(frozenset(pixels), len(pixels), (cx, cy), width, height)

    def scan_key(self) -> tuple[int, int]:
        """Deterministic ordering key: (min y, min x) over member pixels."""
        return (min(y for _, y in self.pixels), min(x for x, _ in self.pixels))


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


_NEIGHBORS = ((-1, -1), (0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1), (1, 1))


def find_components(mask: np.ndarray) -> list[Component]:
    """8-connected components of a boolean mask, ordered by (min y, min x)."""
    mask = np.asarray(mask, dtype=bool)
    height, width = mask.shape
    seen = np.zeros_like(mask, dtype=bool)
    comps: list[Component] = []
    for y in range(height):
        for x in range(width):
            if not mask[y, x] or seen[y, x]:
                continue
            stack = [(x, y)]
            seen[y, x] = True
            pixels: list[tuple[int, int]] = []
            while stack:
                px, py = stack.pop()
                pixels.append((px, py))
                for dx, dy in _NEIGHBORS:
                    nx, ny = px + dx, py + dy
                    if 0 <= nx < width and 0 <= ny < height and mask[ny, nx] and not seen[ny, nx]:
                        seen[ny, nx] = True
                        stack.append((nx, ny))
            comps.append(Component.from_pixels(pixels, width, height))
    comps.sort(key=Component.scan_key)
    return comps


def _pixel_point(px: int, py: int, width: int, height: int) -> PointAnnotation:
    return PointAnnotation((px + 0.5) / width, (py + 0.5) / height)


def _centroid_point(comp: Component) -> PointAnnotation:
    return PointAnnotation(comp.centroid[0], comp.centroid[1])


def _sample_pixels(comp: Component, n: int, rng: random.Random) -> list[PointAnnotation]:
    ordered = sorted(comp.pixels)
    if n <= comp.area:
        chosen = rng.sample(ordered, n)
    else:
        chosen = rng.choices(ordered, k=n)
    return [_pixel_point(px, py, comp.width, comp.height) for px, py in chosen]


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
        by_area = sorted(comps, key=lambda c: (-c.area, c.scan_key()))
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
