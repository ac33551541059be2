"""Slow, obviously-correct reference implementations used only by tests."""

import itertools
import json
import math
from pathlib import Path

import numpy as np

from ircount._gridio import GridFormatError
from ircount.assignment import MatchResult
from ircount.camloc import CAM_RANGE, Component
from ircount.corpus import (
    BoundingBox,
    CountLabel,
    Dataset,
    ImageRecord,
    ManifestError,
    PointAnnotation,
    _check_dims,
    aligned_records,
    annotation_to_count,
)
from ircount.metrics import CountPair, count_metrics
from ircount.postprocess import apply_detector_postprocessing, iou


def naive_nms(boxes, thresh):
    """Independent reference: repeatedly take the best remaining box and
    delete everything overlapping it too much. Returns kept indices."""
    remaining = sorted(range(len(boxes)), key=lambda i: (-boxes[i].score, i))
    kept = []
    while remaining:
        best = remaining.pop(0)
        kept.append(best)
        remaining = [i for i in remaining if iou(boxes[i], boxes[best]) <= thresh]
    return sorted(kept)


def accuracy_at_threshold(pred, gt, conf, nms_iou=0.7):
    """Count accuracy of box predictions at one confidence threshold: the
    boxes left of each record's rows after NMS and the confidence filter."""
    pairs = []
    for gt_rec, pred_rec in aligned_records(gt, pred):
        rows = np.empty((0, 5)) if pred_rec.boxes is None else pred_rec.boxes
        boxes = apply_detector_postprocessing(rows, conf, nms_iou)
        pairs.append(CountPair(gt_rec.id, annotation_to_count(gt_rec).count, len(boxes)))
    return count_metrics(pairs).accuracy


def reference_hungarian(costs):
    """The pure-Python O(n^3) Hungarian method that the array solver replaced.

    Shortest-augmenting-path method with row/column potentials. Columns are
    scanned in ascending order and strict comparisons keep the first
    minimum, so equal-cost instances resolve deterministically. Takes a
    ``CostMatrix``; returns (row, col) pairs sorted by row.
    """
    if costs.rows != costs.cols:
        raise ValueError(f"square matrix required, got {costs.rows} x {costs.cols}")
    n = costs.rows
    if n == 0:
        return []
    flat = costs.costs.ravel().tolist()
    inf = math.inf
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    match_col = [0] * (n + 1)  # match_col[j] = 1-based row matched to column j
    parent = [0] * (n + 1)

    for row in range(1, n + 1):
        match_col[0] = row
        j0 = 0
        min_slack = [inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match_col[j0]
            delta = inf
            j1 = 0
            base = (i0 - 1) * n
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = flat[base + j - 1] - u[i0] - v[j]
                if cur < min_slack[j]:
                    min_slack[j] = cur
                    parent[j] = j0
                if min_slack[j] < delta:
                    delta = min_slack[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match_col[j]] += delta
                    v[j] -= delta
                else:
                    min_slack[j] -= delta
            j0 = j1
            if match_col[j0] == 0:
                break
        while j0:
            j1 = parent[j0]
            match_col[j0] = match_col[j1]
            j0 = j1
    return sorted((match_col[j] - 1, j - 1) for j in range(1, n + 1))


def brute_force_match(gt, pred, penalty=1.0):
    """Exhaustive reference matcher for small instances (max side <= 8).

    Enumerates every injective matching of the smaller side into the
    larger and minimizes pair distances plus penalties for the leftovers.
    Ties keep the first matching in enumeration order. Distances are
    computed here with ``math.hypot``, independently of ``ircount``.
    """
    if not penalty > 0.0:
        raise ValueError(f"penalty must be positive, got {penalty}")
    n, m = len(gt), len(pred)
    if max(n, m) > 8:
        raise ValueError(f"instance too large for brute force: {n} x {m} (max side 8)")
    if n == 0 and m == 0:
        return MatchResult((), 0, 0)
    gt_xy = [(g[0], g[1]) for g in gt]
    pred_xy = [(p[0], p[1]) for p in pred]
    dist = [[math.hypot(gx - px, gy - py) for px, py in pred_xy] for gx, gy in gt_xy]

    best_perm = None
    best_total = math.inf
    if n <= m:
        for perm in itertools.permutations(range(m), n):
            total = 0.0
            for i, j in enumerate(perm):
                total += dist[i][j]
            if total < best_total:
                best_total = total
                best_perm = perm
        assert best_perm is not None
        pairs = tuple((i, j, dist[i][j]) for i, j in enumerate(best_perm))
    else:
        for perm in itertools.permutations(range(n), m):
            total = 0.0
            for j, i in enumerate(perm):
                total += dist[i][j]
            if total < best_total:
                best_total = total
                best_perm = perm
        assert best_perm is not None
        pairs = tuple(
            sorted((i, j, dist[i][j]) for j, i in enumerate(best_perm))
        )
    k = len(pairs)
    return MatchResult(pairs, n - k, m - k)


_NEIGHBORS = ((-1, -1), (0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1), (1, 1))


def component_from_pixels(pixels, width, height):
    """A ``Component`` built from a list of distinct (x, y) pixels."""
    if not pixels:
        raise ValueError("component must contain at least one pixel")
    if len(set(pixels)) != len(pixels):
        raise ValueError("component pixels must be distinct")
    ordered = sorted(pixels)
    xs = [p[0] for p in ordered]
    ys = [p[1] for p in ordered]
    cx = (sum(xs) / len(pixels) + 0.5) / width
    cy = (sum(ys) / len(pixels) + 0.5) / height
    return Component(np.array(xs), np.array(ys), len(pixels), (cx, cy), width, height)


def scan_key(comp):
    """The order ``find_components`` promises: (min y, min x) over member pixels."""
    return (int(comp.ys.min()), int(comp.xs.min()))


def flood_fill_components(mask):
    """8-connected components of a boolean mask, ordered by (min y, min x).

    The per-pixel stack flood fill that ``find_components`` replaced:
    components are discovered in raster order of their first pixel, and
    the stable sort keeps that order between equal scan keys.
    """
    mask = np.asarray(mask, dtype=bool)
    height, width = mask.shape
    seen = np.zeros_like(mask, dtype=bool)
    comps = []
    for y in range(height):
        for x in range(width):
            if not mask[y, x] or seen[y, x]:
                continue
            stack = [(x, y)]
            seen[y, x] = True
            pixels = []
            while stack:
                px, py = stack.pop()
                pixels.append((px, py))
                for dx, dy in _NEIGHBORS:
                    nx, ny = px + dx, py + dy
                    if 0 <= nx < width and 0 <= ny < height and mask[ny, nx] and not seen[ny, nx]:
                        seen[ny, nx] = True
                        stack.append((nx, ny))
            comps.append(component_from_pixels(pixels, width, height))
    comps.sort(key=scan_key)
    return comps


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


# The manifest loader that checked and built one item per box or point
# entry. load_manifest now reads each tier of a file into one array and
# checks it in bulk; this reference must give equal records or the same
# ManifestError message.

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


def per_entry_load_manifest(path: str | Path, max_count: int = 20) -> Dataset:
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


def repr_grid_text(tag, values):
    """The text of a grid file, rendered cell by cell with one ``repr`` each."""
    values = np.asarray(values, dtype=np.float64)
    height, width = values.shape
    lines = [f"{tag} v1", f"{width} {height}"]
    lines += [" ".join(repr(float(v)) for v in row) for row in values]
    return "\n".join(lines) + "\n"


def whole_text_read_grid(path, tag):
    """The grid reader that holds the whole text and its line list at once."""
    path = Path(path)
    try:
        text = path.read_text(encoding="ascii")
    except (OSError, UnicodeDecodeError) as exc:
        raise GridFormatError(f"cannot read {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines or lines[0].strip() != f"{tag} v1":
        raise GridFormatError(f"{path}: expected header '{tag} v1'")
    if len(lines) < 2:
        raise GridFormatError(f"{path}: missing dimensions line")
    dims = lines[1].split()
    if len(dims) != 2:
        raise GridFormatError(f"{path}: dimensions line must be '<width> <height>'")
    try:
        width, height = int(dims[0]), int(dims[1])
    except ValueError as exc:
        raise GridFormatError(f"{path}: non-integer dimensions {lines[1]!r}") from exc
    if width < 1 or height < 1:
        raise GridFormatError(f"{path}: dimensions must be positive, got {width} x {height}")
    tokens = [token for line in lines[2:] for token in line.split()]
    if len(tokens) != width * height:
        raise GridFormatError(f"{path}: expected {width * height} values, found {len(tokens)}")
    try:
        values = np.array([float(token) for token in tokens], dtype=np.float64)
    except ValueError as exc:
        raise GridFormatError(f"{path}: non-numeric grid value: {exc}") from exc
    return width, height, values.reshape(height, width)


def full_frame_blobs(width, height, centers_px, sigmas):
    """Gaussian blobs evaluated on every pixel of the frame and composited
    by elementwise max, as (height, width) float64 values."""
    if isinstance(sigmas, (int, float)):
        sigmas = [float(sigmas)] * len(centers_px)
    grid = np.zeros((height, width), dtype=np.float64)
    ys, xs = np.mgrid[0:height, 0:width]
    for (cx, cy), sigma in zip(centers_px, sigmas):
        blob = CAM_RANGE[1] * np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2.0 * sigma * sigma))
        np.maximum(grid, blob, out=grid)
    return grid
