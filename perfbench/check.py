"""Output checks for the benchmark, run in their own process after the
measured one, so neither their time nor their memory (scipy) is counted.

The checks never import ircount.  They test each distinct output that
the worker kept against facts the generator planted or against an
independent oracle:

* eval-count: accuracy, MSE, MAE and the per-class table equal the
  planted miscounts exactly;
* eval-locate: the score equals an oracle built on scipy's
  ``linear_sum_assignment`` (relative tolerance 1e-9);
* tune-threshold: the curve is on the 1,001-point grid, the best
  threshold is its first maximum, and a fresh greedy NMS recount at that
  threshold reproduces the best accuracy; the SVG exists;
* convert: every point is its box centre, score kept, order kept;
* split and ablate: sizes, disjointness, exhaustiveness and nesting;
* locate-cam: exactly ``count`` points, branch ``split``, every point on
  an above-threshold pixel;
* winsorize: output inside the 5th/95th percentiles, clip bounds taken
  from the data, in-range values untouched;
* synth: ``n`` points at least ``min_sep`` apart, each on a map peak;
* bench: the warmup and timed call counts asked for.

    python3 perfbench/check.py --data DATA --result result.json --out checks.json
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

THRESHOLD = 27.0
NMS_IOU = 0.7
FRACTIONS = [round(0.1 * k, 1) for k in range(1, 11)]


class CheckFailed(Exception):
    pass


def need(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def stdout_json(out: Path) -> dict:
    return json.loads((out / "stdout.txt").read_text(encoding="utf-8"))


def read_grid(path: Path) -> np.ndarray:
    tokens = path.read_text(encoding="ascii").split()
    width, height = int(tokens[2]), int(tokens[3])
    values = np.array(tokens[4:], dtype=np.float64)
    need(values.size == width * height, f"{path.name}: {values.size} values for {width}x{height}")
    return values.reshape(height, width)


def round_half_away(x: float) -> int:
    return int(math.floor(x + 0.5))


# --- corpus steps ----------------------------------------------------------


def check_eval_count(out: Path, data: Path, expect: dict) -> None:
    got = stdout_json(out)
    planted = expect["corpus"]["counts"]
    n = expect["corpus"]["test"]
    need(got["n"] == n, f"n {got['n']} != {n}")
    need(got["accuracy"] == (n - planted["miscounted"]) / n, f"accuracy {got['accuracy']}")
    need(got["mse"] == planted["se"] / n, f"mse {got['mse']}")
    need(got["mae"] == planted["ae"] / n, f"mae {got['mae']}")
    want = {k: {"accuracy": h / o, "occurrences": o} for k, (h, o) in planted["per_class"].items()}
    need(got["per_class"] == want, "per-class table differs from the planted one")


def _maed_oracle(gt: list[dict], pred: list[dict], penalty: float = 1.0) -> float:
    preds = {r["id"]: r["points"] for r in pred}
    total = 0.0
    for rec in gt:
        g = np.array([[b[0], b[1]] for b in rec["boxes"]]).reshape(-1, 2)
        p = np.array([[q[0], q[1]] for q in preds[rec["id"]]]).reshape(-1, 2)
        n, m = len(g), len(p)
        if n == 0 and m == 0:
            continue
        size = max(n, m)
        cost = np.full((size, size), penalty)
        dist = np.hypot(g[:, None, 0] - p[None, :, 0], g[:, None, 1] - p[None, :, 1])
        cost[:n, :m] = dist
        rows, cols = linear_sum_assignment(cost)
        real = (rows < n) & (cols < m)
        matched = int(real.sum())
        contrib = float(np.sum(dist[rows[real], cols[real]] ** 2)) + penalty * (n + m - 2 * matched)
        total += contrib / size
    return total / len(gt)


def check_eval_locate(out: Path, data: Path, expect: dict) -> None:
    got = stdout_json(out)
    gt = load(data / "gt_test.json")["records"]
    want = _maed_oracle(gt, load(data / "pred_points.json")["records"])
    need(got["images"] == len(gt), f"images {got['images']} != {len(gt)}")
    need(math.isclose(got["maed"], want, rel_tol=1e-9), f"maed {got['maed']!r} != oracle {want!r}")


def _nms_keep(boxes: np.ndarray, iou_thresh: float) -> np.ndarray:
    """Greedy NMS by descending score, ties by index; returns kept scores."""
    if len(boxes) == 0:
        return boxes[:, 4]
    cx, cy, w, h, s = boxes.T
    x1, y1, x2, y2 = cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2
    area = (x2 - x1) * (y2 - y1)
    order = np.lexsort((np.arange(len(s)), -s))
    kept: list[int] = []
    for i in order:
        if kept:
            k = np.array(kept)
            iw = np.minimum(x2[i], x2[k]) - np.maximum(x1[i], x1[k])
            ih = np.minimum(y2[i], y2[k]) - np.maximum(y1[i], y1[k])
            inter = iw * ih
            iou = np.where((iw > 0) & (ih > 0), inter / (area[i] + area[k] - inter), 0.0)
            if np.any(iou > iou_thresh):
                continue
        kept.append(i)
    return s[kept]


def check_tune_threshold(out: Path, data: Path, expect: dict) -> None:
    got = stdout_json(out)
    curve = load(out / "curve.json")
    thresholds, accuracies = curve["thresholds"], curve["accuracies"]
    need(len(thresholds) == 1001 and len(accuracies) == 1001, "curve is not on a 1,001-point grid")
    need(all(abs(t - i / 1000) < 1e-9 for i, t in enumerate(thresholds)), "grid points off 0.001 steps")
    best = max(accuracies)
    first = accuracies.index(best)
    need(got["best_accuracy"] == best == curve["best_accuracy"], "best accuracy is not the curve maximum")
    need(got["best_threshold"] == thresholds[first] == curve["best_threshold"], "best threshold is not the first maximum")
    gt = load(data / "gt_test.json")["records"]
    pred = {r["id"]: r["boxes"] for r in load(data / "pred_boxes.json")["records"]}
    t = got["best_threshold"]
    hits = 0
    for rec in gt:
        scores = _nms_keep(np.array(pred[rec["id"]], dtype=np.float64).reshape(-1, 5), NMS_IOU)
        hits += int(np.sum(scores >= t)) == len(rec["boxes"])
    need(hits / len(gt) == got["best_accuracy"], f"recount {hits / len(gt)} != {got['best_accuracy']}")
    need((out / "curve.svg").read_text(encoding="utf-8").startswith("<?xml"), "curve.svg is not an SVG file")


def check_convert(out: Path, data: Path, expect: dict) -> None:
    src = load(data / "pred_boxes.json")["records"]
    dst = load(out / "points.json")["records"]
    need([r["id"] for r in dst] == [r["id"] for r in src], "record order or ids changed")
    for a, b in zip(src, dst):
        need("boxes" not in b, f"{b['id']}: boxes tier kept")
        need(b["points"] == [[x[0], x[1], x[4]] for x in a["boxes"]], f"{b['id']}: points are not box centres")


def check_split(out: Path, data: Path, expect: dict) -> None:
    src = load(data / "all.json")["records"]
    train, test = load(out / "train.json")["records"], load(out / "test.json")["records"]
    c = expect["corpus"]
    need((len(train), len(test)) == (c["train"], c["total"] - c["train"]), f"sizes {len(train)}/{len(test)}")
    ids_train, ids_test = {r["id"] for r in train}, {r["id"] for r in test}
    need(not ids_train & ids_test, "train and test overlap")
    need(ids_train | ids_test == {r["id"] for r in src}, "split is not exhaustive")
    by_id = {r["id"]: r for r in src}
    need(all(r == by_id[r["id"]] for r in train + test), "records changed in the split")


def check_ablate(out: Path, data: Path, expect: dict) -> None:
    train = load(data / "gt_train.json")["records"]
    by_id = {r["id"]: r for r in train}
    previous: list[str] = []
    for f in FRACTIONS:
        ids = [r["id"] for r in load(out / f"subset_{f:g}.json")["records"]]
        need(len(ids) == round_half_away(f * len(train)), f"subset {f:g} has {len(ids)} records")
        need(len(set(ids)) == len(ids), f"subset {f:g} repeats a record")
        need(all(i in by_id for i in ids), f"subset {f:g} has records outside the train split")
        need(ids[: len(previous)] == previous, f"subset {f:g} does not extend the smaller subset")
        previous = ids
    need(set(previous) == set(by_id), "the 1.0 subset is not the whole train split")


# --- grid steps ------------------------------------------------------------


def check_locate_cam(out: Path, data: Path, expect: dict) -> None:
    got = load(out / "points.json")
    values = read_grid(data / "map.cam")
    height, width = values.shape
    need(len(got["points"]) == expect["grid"]["count"], f"{len(got['points'])} points")
    need(got["branch"] == "split", f"branch {got['branch']!r}")
    for cx, cy in got["points"]:
        px, py = min(int(cx * width), width - 1), min(int(cy * height), height - 1)
        need(values[py, px] > THRESHOLD, f"point ({cx}, {cy}) is on a background pixel")


def check_winsorize(out: Path, data: Path, expect: dict) -> None:
    src = read_grid(data / "frame.frame")
    dst = read_grid(out / "out.frame")
    need(src.shape == dst.shape, "frame shape changed")
    lo, hi = dst.min(), dst.max()
    need(np.percentile(src, 5) <= lo and hi <= np.percentile(src, 95), "clip bounds outside the 5-95 range")
    need(np.isin([lo, hi], src).all(), "clip bounds are not data values")
    need(np.array_equal(dst, np.clip(src, lo, hi)), "values inside the bounds changed")


def check_synth(out: Path, data: Path, expect: dict) -> None:
    n = expect["synth"]["n"]
    width, height = (int(v) for v in expect["synth"]["dims"].split("x"))
    values = read_grid(out / "map.cam")
    need(values.shape == (height, width), f"map shape {values.shape}")
    (rec,) = load(out / "scene.json")["records"]
    pts = np.array([[p[0] * width - 0.5, p[1] * height - 0.5] for p in rec["points"]])
    need(len(pts) == n == len(rec["boxes"]) == rec["count"], "scene does not hold n people")
    px, py = np.rint(pts[:, 0]).astype(int), np.rint(pts[:, 1]).astype(int)
    need(np.all(values[py, px] == 255.0), "a planted point is not on a blob peak")
    d = np.hypot(pts[:, None, 0] - pts[None, :, 0], pts[:, None, 1] - pts[None, :, 1])
    need(np.all(d[np.triu_indices(n, 1)] >= 16.0 - 1e-9), "blobs closer than min_sep")


def check_bench(out: Path, data: Path, expect: dict) -> None:
    got = load(out / "bench.json")
    want = expect["bench"]
    need(got["timed_iters"] == want["iters"], f"timed_iters {got['timed_iters']}")
    need(got["warmup_iters"] == want["warmup"], f"warmup_iters {got['warmup_iters']}")
    need(got["fps"] > 0 and got["mean_latency"] > 0, "non-positive latency")


CHECKS = {
    "eval-count": check_eval_count,
    "eval-locate": check_eval_locate,
    "tune-threshold": check_tune_threshold,
    "convert": check_convert,
    "split": check_split,
    "ablate": check_ablate,
    "locate-cam": check_locate_cam,
    "winsorize": check_winsorize,
    "synth": check_synth,
    "bench": check_bench,
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    data = Path(args.data)
    expect = load(data / "expect.json")
    verdicts: dict[str, dict[str, str]] = {}
    for step, record in load(Path(args.result))["steps"].items():
        verdicts[step] = {}
        for digest, kept in record["kept"].items():
            try:
                CHECKS[step](Path(kept), data, expect)
                verdicts[step][digest] = "ok"
            except (CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
                verdicts[step][digest] = f"{type(exc).__name__}: {exc}"
    Path(args.out).write_text(json.dumps(verdicts, indent=1), encoding="utf-8")


if __name__ == "__main__":
    main()
