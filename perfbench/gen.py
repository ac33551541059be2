"""Seeded input generator for the ircount benchmark.

Writes one workload's input files into a directory, together with
``expect.json``, which holds the facts the generator planted (miscounted
images, component layout, sizes) so that the output checks need not
trust the module under test.  It runs as its own process so that its
memory and time never show up in the measured workload process.

    python3 perfbench/gen.py --workload c4-eval --seed 1 --out DIR

The toolkit is not imported: manifests and grids are written with the
standard library and numpy straight to the documented file formats.
"""

from __future__ import annotations

import argparse
import json
import math
import random
from pathlib import Path

import numpy as np

# Paper sizes: the C4 split holds 15,488 records, 12,025 train and 3,463 test.
C4_TOTAL, C4_TRAIN = 15488, 12025
C4_CLASSES = list(range(14))  # the paper's count classes 0-13
CROWD_TRAIN, CROWD_IMAGES, CROWD_PEOPLE = 100, 200, 100
SMALL_CORPUS_TOTAL, SMALL_CORPUS_TRAIN = 200, 160


def _unit(v: float) -> float:
    return min(max(v, 0.0), 1.0)


def _gt_box(rng: random.Random, size: tuple[float, float]) -> list[float]:
    w = rng.uniform(*size)
    h = rng.uniform(*size)
    cx = rng.uniform(w / 2, 1.0 - w / 2)
    cy = rng.uniform(h / 2, 1.0 - h / 2)
    return [cx, cy, w, h, 1.0]


def _jitter_box(rng: random.Random, box: list[float], pos: float, score: float) -> list[float]:
    cx, cy, w, h, _ = box
    return [_unit(cx + rng.gauss(0, pos * w)), _unit(cy + rng.gauss(0, pos * h)), w, h, score]


def _balanced(rng: random.Random, n: int, values) -> list:
    """``n`` values cycling through ``values``, shuffled: every seed gets
    the same multiset, so the amount of work does not depend on the seed."""
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def _detections(rng: random.Random, images: list[list[list[float]]], size, false_per_image: int) -> list[list[list[float]]]:
    """Detector output per image: scored hits (5% of them weak), near
    duplicates of 15% of hits for NMS to remove, and low-scoring false
    positives."""
    n_hits = sum(len(boxes) for boxes in images)
    weak = iter(_balanced(rng, n_hits, [True] + [False] * 19))
    dup = iter(_balanced(rng, n_hits, [True] * 3 + [False] * 17))
    out = []
    for gt_boxes in images:
        dets = []
        for box in gt_boxes:
            score = rng.uniform(0.05, 0.4) if next(weak) else rng.uniform(0.55, 1.0)
            hit = _jitter_box(rng, box, 0.05, score)
            dets.append(hit)
            if next(dup):  # IoU with its hit well above 0.7
                dets.append(_jitter_box(rng, hit, 0.02, score * rng.uniform(0.5, 0.99)))
        for _ in range(false_per_image):
            box = _gt_box(rng, size)
            box[4] = rng.uniform(0.0, 0.5)
            dets.append(box)
        rng.shuffle(dets)
        out.append(dets)
    return out


def _points(rng: random.Random, gt_boxes: list[list[float]], misses: int, extras: int, noise: float) -> list[list[float]]:
    pts = [[_unit(b[0] + rng.gauss(0, noise)), _unit(b[1] + rng.gauss(0, noise)), 1.0] for b in gt_boxes]
    for _ in range(min(misses, len(pts))):
        pts.pop(rng.randrange(len(pts)))
    for _ in range(extras):
        pts.insert(rng.randrange(len(pts) + 1), [rng.random(), rng.random(), 1.0])
    return pts


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def _manifest(name: str, records: list[dict]) -> dict:
    return {"name": name, "records": records}


def _corpus(out: Path, rng: random.Random, prefix: str, total: int, train: int, classes, box_size,
            false_per_image: int, misses, extras) -> dict:
    """Ground truth for ``total`` images plus prediction manifests for the
    last ``total - train`` (the test part), and the planted count errors.
    Counts cycle through ``classes`` within each part; ``misses`` and
    ``extras`` are the per-image numbers of dropped and added points."""
    counts = _balanced(rng, train, classes) + _balanced(rng, total - train, classes)
    gt = []
    for i, k in enumerate(counts):
        boxes = [_gt_box(rng, box_size) for _ in range(k)]
        gt.append({"id": f"{prefix}-{i:05d}", "width": 640, "height": 512, "boxes": boxes})
    test = gt[train:]
    n = len(test)
    dets = _detections(rng, [r["boxes"] for r in test], box_size, false_per_image)
    # 20% of test images are miscounted, by -2, -1, +1 or +2.
    deltas = _balanced(rng, n, [-2, -1, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0])
    pts, cnts = [], []
    planted = {"miscounted": 0, "se": 0, "ae": 0, "per_class": {}}
    for rec, boxes, delta, miss, extra in zip(test, dets, deltas, _balanced(rng, n, misses), _balanced(rng, n, extras)):
        base = {"id": rec["id"], "width": rec["width"], "height": rec["height"]}
        pts.append({**base, "points": _points(rng, rec["boxes"], miss, extra, 0.01)})
        k = len(rec["boxes"])
        if k + delta < 0:
            delta = -delta
        cnts.append({**base, "count": k + delta})
        planted["miscounted"] += delta != 0
        planted["se"] += delta * delta
        planted["ae"] += abs(delta)
        hits, occ = planted["per_class"].get(str(k), (0, 0))
        planted["per_class"][str(k)] = (hits + (delta == 0), occ + 1)
    _write_json(out / "all.json", _manifest(f"{prefix}-all", gt))
    _write_json(out / "gt_train.json", _manifest(f"{prefix}-train", gt[:train]))
    _write_json(out / "gt_test.json", _manifest(f"{prefix}-test", test))
    _write_json(out / "pred_boxes.json", _manifest(f"{prefix}-det", [
        {"id": r["id"], "width": r["width"], "height": r["height"], "boxes": b} for r, b in zip(test, dets)]))
    _write_json(out / "pred_points.json", _manifest(f"{prefix}-pts", pts))
    _write_json(out / "pred_counts.json", _manifest(f"{prefix}-cnt", cnts))
    return {"total": total, "train": train, "test": n, "counts": planted, "max_count": max(classes) + 2}


def _format_grid(tag: str, values: np.ndarray) -> str:
    height, width = values.shape
    body = "\n".join(" ".join(f"{v:.3f}" for v in row) for row in values.tolist())
    return f"{tag} v1\n{width} {height}\n{body}\n"


def _cam_map(rng: np.random.Generator, width: int, height: int, n_blobs: int) -> tuple[np.ndarray, dict]:
    """Disjoint elliptical blobs covering about half the map, on noise
    below the binary threshold of 27.  Convex blobs keep every component
    centroid on a foreground pixel."""
    values = rng.uniform(0.0, 20.0, size=(height, width))
    ys, xs = np.mgrid[0:height, 0:width]
    cols = math.ceil(math.sqrt(n_blobs * width / height))
    rows = math.ceil(n_blobs / cols)
    cell_w, cell_h = width / cols, height / rows
    # An ellipse filling a share s of its cell covers pi/4 * s^2 of it.
    fill = min(0.98, math.sqrt(0.5 * cols * rows / n_blobs / (math.pi / 4)))
    ax, ay = cell_w / 2 * fill, cell_h / 2 * fill
    for k in range(n_blobs):
        r, c = divmod(k, cols)
        cx = (c + 0.5) * cell_w + rng.uniform(-0.5, 0.5) * (cell_w / 2 - ax)
        cy = (r + 0.5) * cell_h + rng.uniform(-0.5, 0.5) * (cell_h / 2 - ay)
        inside = ((xs - cx) / ax) ** 2 + ((ys - cy) / ay) ** 2 <= 1.0
        values[inside] = rng.uniform(40.0, 255.0, size=int(inside.sum()))
    fg = int((values > 27.0).sum())
    return values, {"components": n_blobs, "fg_pixels": fg}


def _frame(rng: np.random.Generator, width: int, height: int) -> np.ndarray:
    """A temperature frame in degrees C with a few hot and cold outliers."""
    frame = rng.normal(22.0, 3.0, size=(height, width))
    hot = rng.random(size=frame.shape) < 0.01
    frame[hot] += rng.uniform(20.0, 80.0, size=int(hot.sum()))
    cold = rng.random(size=frame.shape) < 0.01
    frame[cold] -= rng.uniform(10.0, 40.0, size=int(cold.sum()))
    return frame


def _grids(out: Path, rng: np.random.Generator, width: int, height: int, n_blobs: int, people: int) -> dict:
    values, cam = _cam_map(rng, width, height, n_blobs)
    (out / "map.cam").write_text(_format_grid("CAM", values), encoding="ascii")
    (out / "frame.frame").write_text(_format_grid("FRAME", _frame(rng, width, height)), encoding="ascii")
    return {"width": width, "height": height, "count": people, **cam}


WORKLOADS = {
    # name: corpus layout, grid layout, synth scene, bench protocol
    "c4-eval": dict(
        corpus=dict(prefix="c4", total=C4_TOTAL, train=C4_TRAIN, classes=C4_CLASSES,
                    box_size=(0.03, 0.12), false_per_image=1, misses=[1] + [0] * 9, extras=[1] + [0] * 9),
        grid=dict(width=160, height=128, n_blobs=4, people=12),
        synth=dict(n=6, dims="160x128"),
        bench=dict(warmup=100, iters=10000),
    ),
    "crowd-100": dict(
        corpus=dict(prefix="crowd", total=CROWD_TRAIN + CROWD_IMAGES, train=CROWD_TRAIN, classes=[CROWD_PEOPLE],
                    box_size=(0.01, 0.04), false_per_image=1, misses=[0, 1, 2, 3], extras=[0, 1, 2, 3]),
        grid=dict(width=160, height=128, n_blobs=4, people=12),
        synth=dict(n=6, dims="160x128"),
        bench=dict(warmup=100, iters=10000),
    ),
    "frame-640": dict(
        corpus=dict(prefix="fr", total=SMALL_CORPUS_TOTAL, train=SMALL_CORPUS_TRAIN, classes=C4_CLASSES,
                    box_size=(0.03, 0.12), false_per_image=1, misses=[1] + [0] * 9, extras=[1] + [0] * 9),
        grid=dict(width=640, height=512, n_blobs=12, people=40),
        synth=dict(n=20, dims="640x512"),
        bench=dict(warmup=100, iters=10000),
    ),
}


def generate(workload: str, seed: int, out: Path) -> dict:
    spec = WORKLOADS[workload]
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    nprng = np.random.default_rng(rng.getrandbits(64))
    expect = {
        "workload": workload,
        "seed": seed,
        "corpus": _corpus(out, rng, **spec["corpus"]),
        "grid": _grids(out, nprng, **spec["grid"]),
        "synth": spec["synth"],
        "bench": spec["bench"],
    }
    _write_json(out / "expect.json", expect)
    return expect


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, Path(args.out))


if __name__ == "__main__":
    main()
