#!/usr/bin/env python3
"""End-to-end walkthrough on synthetic data.

Generates blob scenes with known ground truth, runs the three prediction
styles the toolkit scores (counts, points from activation maps, noisy
detector boxes), and writes reports, a threshold-tuning curve, and an SVG
under the output directory.
"""

import argparse
import json
import random
from pathlib import Path

import numpy as np

from ircount import camloc, corpus, harness, metrics, postprocess
from ircount.cli import emit_plot
from ircount.corpus import CountLabel, Dataset, ImageRecord


def noisy_detector(scene, rng, jitter=0.01, extra_rate=0.6, miss_rate=0.04):
    """Fake detector: ``(k, 5)`` rows of jittered true boxes with
    mostly-high scores, a few misses, and spurious boxes whose scores
    overlap the low end of the true range, so no threshold is perfect."""
    rows = []
    for cx, cy, w, h, _ in scene.boxes.tolist():
        if rng.random() < miss_rate:
            continue
        cx = min(1.0, max(0.0, cx + rng.uniform(-jitter, jitter)))
        cy = min(1.0, max(0.0, cy + rng.uniform(-jitter, jitter)))
        rows.append((cx, cy, w, h, rng.uniform(0.45, 0.99)))
    for _ in range(rng.randrange(3) if rng.random() < extra_rate else 0):
        rows.append((rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9), 0.1, 0.1, rng.uniform(0.05, 0.6)))
    return np.array(rows, dtype=np.float64).reshape(-1, 5)


def noisy_count(truth, rng, error_rate=0.15):
    """Fake image-level counter feeding the activation-map extraction."""
    if rng.random() < error_rate:
        return max(0, truth + rng.choice([-1, 1]))
    return truth


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--images", type=int, default=60)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out-dir", default="out/synthetic")
    args = parser.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(args.seed)

    gt_records, det_records = [], []
    cam_gt_sets, cam_pred_sets = [], []
    for i in range(args.images):
        n = rng.randint(0, 6)
        scene = harness.synth_scene(n, 64, 64, blob_sigma=2.0, min_sep=16.0, seed=args.seed * 1000 + i)
        gt_records.append(
            ImageRecord(f"img-{i:03d}", 64, 64, points=scene.points, count=CountLabel(n))
        )
        det_records.append(ImageRecord(f"img-{i:03d}", 64, 64, boxes=noisy_detector(scene, rng)))
        located = camloc.locate_people(scene.amap, 27.0, noisy_count(n, rng), seed=i)
        cam_gt_sets.append(scene.points)
        cam_pred_sets.append(located.points)

    gt = Dataset("synthetic-gt", tuple(gt_records))
    detections = Dataset("synthetic-det", tuple(det_records))
    corpus.save_manifest(gt, out / "gt.json")
    corpus.save_manifest(detections, out / "detections.json")

    # Tune the detector's score threshold against ground-truth counts.
    curve = postprocess.tune_threshold(detections, gt, postprocess.default_grid(0.005), nms_iou=0.7)
    emit_plot(curve, out / "threshold_curve.svg")
    print(f"best threshold {curve.best_threshold:.3f} -> count accuracy {curve.best_accuracy:.4f}")

    # Score detector counts at the tuned threshold.
    pairs = []
    for g, d in corpus.aligned_records(gt, detections):
        kept = postprocess.apply_detector_postprocessing(d.boxes, curve.best_threshold, 0.7)
        pairs.append(metrics.CountPair(g.id, corpus.annotation_to_count(g).count, len(kept)))
    det_report = metrics.count_metrics(pairs, per_class=True)

    # Score activation-map localization against the planted points.
    cam_maed = metrics.maed(cam_gt_sets, cam_pred_sets)

    print(metrics.render_count_table([("noisy-detector", det_report)]))
    print(f"activation-map localization maed: {cam_maed:.6f}")
    (out / "summary.json").write_text(
        json.dumps(
            {
                "detector": metrics.report_to_dict(det_report, "noisy-detector"),
                "cam_maed": cam_maed,
                "best_threshold": curve.best_threshold,
            },
            indent=2,
        )
    )
    print(f"artifacts in {out}/")


if __name__ == "__main__":
    main()
