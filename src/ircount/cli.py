"""ircount-eval: one command-line entry point for the whole toolkit.

Subcommands: eval-count, eval-locate, tune-threshold, locate-cam,
winsorize, convert, split, ablate, break-even, bench, synth, report.
Exit codes: 0 success, 1 validation/usage error, 2 runtime error, 143 SIGTERM.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import signal
import sys
from dataclasses import replace
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from ircount import camloc, corpus, harness, metrics, postprocess, preprocess
from ircount._fsutil import write_text_atomic
from ircount._gridio import checked_grid, read_grid
from ircount.corpus import Dataset, ImageRecord
from ircount.harness import FractionCurve
from ircount.postprocess import ThresholdCurve


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# plotting


def emit_plot(curve: ThresholdCurve | FractionCurve, path: str | Path) -> None:
    """Write a standalone SVG line chart for a tuning or fraction curve.

    Output bytes depend only on the curve values, so identical inputs
    yield identical files.
    """
    if isinstance(curve, ThresholdCurve):
        xs, xlabel, title = curve.thresholds, "threshold", "count accuracy vs. score threshold"
    else:
        xs, xlabel = curve.fractions, "training fraction"
        title = curve.label or "count accuracy vs. training fraction"
    write_text_atomic(path, _svg_line_chart(xs, curve.accuracies, xlabel, title))


def _svg_line_chart(xs: Sequence[float], ys: Sequence[float], xlabel: str, title: str) -> str:
    # The replacements of xml.sax.saxutils.escape, whose import would load urllib and http.client.
    title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    left, right, top, bottom = 60.0, 620.0, 30.0, 355.0
    xmin, xmax = min(xs), max(xs)
    if xmax == xmin:
        xmin, xmax = xmin - 0.5, xmax + 0.5

    def sx(x: float) -> float:
        return left + (x - xmin) / (xmax - xmin) * (right - left)

    def sy(y: float) -> float:
        return bottom - y * (bottom - top)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="400" '
        'font-family="monospace" font-size="12">',
        '<rect width="640" height="400" fill="white"/>',
        f'<text x="320" y="18" text-anchor="middle">{title}</text>',
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" stroke="black"/>',
    ]
    for k in range(5):
        xv = xmin + (xmax - xmin) * k / 4
        px = sx(xv)
        parts.append(f'<line x1="{px:.2f}" y1="{bottom}" x2="{px:.2f}" y2="{bottom + 5}" stroke="black"/>')
        parts.append(f'<text x="{px:.2f}" y="{bottom + 20}" text-anchor="middle">{xv:.3f}</text>')
    for k in range(5):
        yv = k / 4
        py = sy(yv)
        parts.append(f'<line x1="{left - 5}" y1="{py:.2f}" x2="{left}" y2="{py:.2f}" stroke="black"/>')
        parts.append(f'<text x="{left - 8}" y="{py + 4:.2f}" text-anchor="end">{yv:.2f}</text>')
    parts.append(f'<text x="340" y="390" text-anchor="middle">{xlabel}</text>')
    parts.append('<text x="16" y="192" text-anchor="middle" transform="rotate(-90 16 192)">accuracy</text>')
    points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    parts.append(f'<polyline points="{points}" fill="none" stroke="steelblue" stroke-width="1.5"/>')
    best = postprocess.best_point(xs, ys)
    bx, by = sx(best[0]), sy(best[1])
    parts.append(f'<circle cx="{bx:.2f}" cy="{by:.2f}" r="4" fill="crimson"/>')
    parts.append(
        f'<text x="{min(bx + 8, 520):.2f}" y="{max(by - 8, 42):.2f}">'
        f"best {best[0]:.3f} @ {best[1]:.4f}</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# shared helpers


def _emit(payload: dict, out: str | None) -> None:
    _emit_text(json.dumps(payload, indent=2), out)


def _emit_text(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out:
        write_text_atomic(out, text)
    else:
        sys.stdout.write(text)


@contextlib.contextmanager
def _naming(*paths: str) -> Iterator[None]:
    """Prefix a ValueError raised inside with the input files it concerns."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{', '.join(paths)}: {exc}") from None


def _distinct_outputs(option: str, path: str, other_option: str, other: str | None) -> None:
    if other is not None and Path(path).resolve() == Path(other).resolve():
        raise ValueError(f"{option} and {other_option} name the same file: {path!r}")


def _load_json(path: str) -> object:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"cannot parse {path}: {exc}") from None


def _points_of(rec: ImageRecord, path: str) -> np.ndarray:
    """The record's point rows, else its box rows: (cx, cy) lead both."""
    if rec.points is not None:
        return rec.points
    if rec.boxes is not None:
        return rec.boxes
    raise ValueError(f"{path}: record {rec.id!r} carries no localizable tier (points or boxes)")


def _parse_dims(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        return int(w), int(h)
    except ValueError:
        raise ValueError(f"dims must look like 64x64, got {text!r}") from None


_MAX_FRACTIONS = 1000  # each fraction writes one subset manifest


def _parse_fractions(text: str) -> list[float]:
    is_range = ":" in text
    try:
        if is_range:
            start, stop, step = (float(v) for v in text.split(":"))
        else:
            values = [float(v) for v in text.split(",") if v]
    except ValueError:
        raise ValueError(f"fractions must be start:stop:step or a comma list, got {text!r}") from None
    if is_range:
        if not 0.0 < step < math.inf:
            raise ValueError(f"fraction step must be positive and finite, got {text!r}")
        if not (0.0 < start <= 1.0 and 0.0 < stop <= 1.0):
            raise ValueError(f"fraction start and stop must lie in (0, 1], got {text!r}")
        if (stop - start) / step >= _MAX_FRACTIONS:
            raise ValueError(f"fraction range {text!r} gives more than {_MAX_FRACTIONS} fractions")
        values = []
        k = 0
        while True:
            v = round(start + k * step, 9)
            if v > stop + 1e-9:
                break
            values.append(min(v, 1.0))
            k += 1
    if not values or any(not 0.0 < v <= 1.0 for v in values) or any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"fractions must be non-empty and ascend within (0, 1], got {text!r}")
    # The fractions ascend and {:g} rounds monotonically, so equal names are neighbours.
    clash = next(((a, b) for a, b in zip(values, values[1:]) if f"{a:g}" == f"{b:g}"), None)
    if clash:
        raise ValueError(f"--fractions {clash[0]!r} and {clash[1]!r} would both write subset_{clash[0]:g}.json")
    return values


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_eval_count(args: argparse.Namespace) -> None:
    gt = corpus.load_manifest(args.gt, args.max_count)
    pred = corpus.load_manifest(args.pred, args.max_count)
    with _naming(args.gt, args.pred):
        pairs = postprocess.count_pairs_from_datasets(gt, pred)
        report = metrics.count_metrics(pairs, per_class=args.per_class)
    if args.format == "json":
        _emit(metrics.report_to_dict(report, args.label), args.out)
        return
    text = metrics.render_count_table([(args.label, report)], args.format)
    if args.per_class:
        text += "\n\n" + metrics.render_per_class_table(report, args.format)
    _emit_text(text, args.out)


def _cmd_eval_locate(args: argparse.Namespace) -> None:
    cfg = metrics.MaedConfig(args.penalty, not args.no_squared, args.denominator)
    gt = corpus.load_manifest(args.gt, args.max_count)
    pred = corpus.load_manifest(args.pred, args.max_count)
    with _naming(args.gt, args.pred):
        pairs = corpus.aligned_records(gt, pred)
    gt_sets = [_points_of(g, args.gt) for g, _ in pairs]
    pred_sets = [_points_of(p, args.pred) for _, p in pairs]
    with _naming(args.gt, args.pred):
        value = metrics.maed(gt_sets, pred_sets, cfg)
    _emit(
        {
            "maed": value,
            "images": len(gt_sets),
            "penalty": cfg.penalty,
            "squared": cfg.squared,
            "denominator": cfg.denominator,
        },
        args.out,
    )


def _cmd_tune_threshold(args: argparse.Namespace) -> None:
    if not 0.0 <= args.nms <= 1.0:  # checked before the files are named below
        raise ValueError(f"--nms must be in [0, 1], got {args.nms}")
    _distinct_outputs("--out", args.out, "--svg", args.svg)
    grid = postprocess.default_grid(args.grid_step)
    gt = corpus.load_manifest(args.gt, args.max_count)
    pred = corpus.load_manifest(args.pred, args.max_count)
    with _naming(args.gt, args.pred):
        curve = postprocess.tune_threshold(pred, gt, grid, args.nms)
    best = {"best_threshold": curve.best_threshold, "best_accuracy": curve.best_accuracy}
    _emit({"thresholds": list(curve.thresholds), "accuracies": list(curve.accuracies), **best}, args.out)
    if args.svg:
        emit_plot(curve, args.svg)
    _emit({**best, "out": args.out}, None)


def _cmd_locate_cam(args: argparse.Namespace) -> None:
    if not 0.0 < args.map_scale < math.inf:
        raise ValueError(f"--map-scale must be positive and finite, got {args.map_scale}")
    peak = camloc.CAM_RANGE[1]
    if args.map_scale == peak:
        amap = camloc.read_activation_map(args.map)
    else:
        width, height, values = read_grid(args.map, camloc.CAM_TAG)
        amap = checked_grid(args.map, (width, height, values * (peak / args.map_scale)), camloc.CAM_RANGE)
    result = camloc.locate_people(amap, args.threshold, args.count, args.seed)
    _emit(
        {
            "points": result.points[:, :2].tolist(),
            "count": args.count,
            "branch": result.branch,
            "degenerate": result.degenerate,
            "seed": args.seed,
        },
        args.out,
    )


def _cmd_winsorize(args: argparse.Namespace) -> None:
    frame = preprocess.read_frame(args.infile)
    preprocess.write_frame(preprocess.winsorize(frame, args.lo, args.hi), args.outfile)


def _cmd_convert(args: argparse.Namespace) -> None:
    ds = corpus.load_manifest(args.infile, args.max_count)
    records = []
    for rec in ds.records:
        if args.to == "points":
            if rec.boxes is None:
                raise ValueError(f"{args.infile}: record {rec.id!r} has no boxes to convert")
            records.append(replace(rec, boxes=None, points=corpus.boxes_to_points(rec.boxes)))
        else:  # count
            records.append(
                replace(rec, boxes=None, points=None, count=corpus.annotation_to_count(rec))
            )
    corpus.save_manifest(Dataset(ds.name, tuple(records)), args.out)


def _cmd_split(args: argparse.Namespace) -> None:
    if args.train_count < 0:  # checked before the file is named below
        raise ValueError(f"--train-count must be >= 0, got {args.train_count}")
    _distinct_outputs("--out-train", args.out_train, "--out-test", args.out_test)
    ds = corpus.load_manifest(args.manifest, args.max_count)
    with _naming(args.manifest):
        train, test = corpus.split_dataset(ds, args.train_count, args.seed)
    corpus.save_manifest(train, args.out_train)
    corpus.save_manifest(test, args.out_test)
    _emit({"train_size": len(train), "test_size": len(test), "seed": args.seed}, None)


def _cmd_ablate(args: argparse.Namespace) -> None:
    fractions = _parse_fractions(args.fractions)
    ds = corpus.load_manifest(args.manifest, args.max_count)
    with _naming(args.manifest):
        subsets = harness.ablate_fractions(ds, fractions, args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    listing = []
    for fraction, subset in zip(fractions, subsets):
        path = out_dir / f"subset_{fraction:g}.json"
        corpus.save_manifest(subset, path)
        listing.append({"fraction": fraction, "path": str(path), "size": len(subset)})
    _emit({"seed": args.seed, "subsets": listing}, None)


def _cmd_break_even(args: argparse.Namespace) -> None:
    doc = _load_json(args.curve)
    try:
        curve = FractionCurve(
            tuple(doc["fractions"]), tuple(doc["accuracies"]), doc.get("label", "")
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"{args.curve}: curve file must carry 'fractions' and 'accuracies' lists and a string label: {exc}"
        ) from exc
    fraction = harness.break_even(curve, args.target)
    _emit({"target": args.target, "fraction": fraction, "label": curve.label}, args.out)


def _cmd_bench(args: argparse.Namespace) -> None:
    for token in args.inputs:  # checked before the predictor starts
        if "\n" in token or "\r" in token:
            raise ValueError(f"--inputs token {token!r} holds a line break; each token is sent as one line")
    harness.check_bench_options(args.warmup, args.iters, args.inputs)
    with harness.ProcessPredictor(args.cmd) as predictor:
        stats = harness.bench_fps(predictor, args.warmup, args.iters, args.inputs)
    payload = {
        "warmup_iters": stats.warmup_iters,
        "timed_iters": stats.timed_iters,
        "mean_latency": stats.mean_latency,
        "fps": stats.fps,
        **{f"p{q}_latency": harness.latency_percentile(stats, q) for q in (50, 90, 99)},
    }
    _emit(payload, args.out)


def _cmd_synth(args: argparse.Namespace) -> None:
    width, height = _parse_dims(args.dims)
    scene = harness.synth_scene(args.n, width, height, args.sigma, args.min_sep, args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    map_path = out_dir / "map.cam"
    camloc.write_activation_map(scene.amap, map_path)
    record = ImageRecord(
        f"synth-{args.seed}-0", width, height, scene.boxes, scene.points, corpus.CountLabel(args.n), "map.cam"
    )
    manifest_path = out_dir / "scene.json"
    corpus.save_manifest(Dataset(f"synth[{args.n}@{args.dims}]", (record,)), manifest_path)
    _emit({"map": str(map_path), "manifest": str(manifest_path), "count": args.n, "seed": args.seed}, None)


def _report_rows(doc: object, path: str) -> list[tuple[str, metrics.MetricsReport]]:
    if isinstance(doc, dict) and "rows" in doc:
        doc = doc["rows"]
    if isinstance(doc, dict):
        doc = [doc]
    if not isinstance(doc, list):
        raise ValueError(f"{path}: results file must be a report object or a list of them")
    rows = []
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: results entry #{i} is not an object")
        try:
            per_class = None
            if "per_class" in entry:
                per_class = {int(k): (v["accuracy"], v["occurrences"]) for k, v in entry["per_class"].items()}
            report = metrics.MetricsReport(entry["accuracy"], entry["mse"], entry["mae"], entry["n"], per_class)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ValueError(f"{path}: results entry #{i} is missing a field or has a bad value: {exc}") from exc
        rows.append((str(entry.get("model", f"model-{i}")), report))
    return rows


def _cmd_report(args: argparse.Namespace) -> None:
    rows = _report_rows(_load_json(args.infile), args.infile)
    if args.format == "json":
        _emit({"rows": [metrics.report_to_dict(r, m) for m, r in rows]}, args.out)
        return
    text = metrics.render_count_table(rows, args.format)
    per_class_rows = [(m, r) for m, r in rows if r.per_class is not None]
    for model, report in per_class_rows:
        text += f"\n\n{model}:\n" + metrics.render_per_class_table(report, args.format)
    _emit_text(text, args.out)


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared by every caller,
    ``run`` included, so callers must not change it."""
    parser = _Parser(prog="ircount-eval", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # Options that several subcommands share, declared once and inherited.
    max_count = argparse.ArgumentParser(add_help=False)
    max_count.add_argument("--max-count", type=int, default=20, help="reject explicit count labels above this")
    gt_pred = argparse.ArgumentParser(add_help=False, parents=[max_count])
    gt_pred.add_argument("--gt", required=True)
    gt_pred.add_argument("--pred", required=True)
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out")

    p = sub.add_parser(
        "eval-count", parents=[gt_pred, out], help="count accuracy / MSE / MAE of predictions vs ground truth"
    )
    p.add_argument("--per-class", action="store_true")
    p.add_argument("--label", default="prediction")
    p.add_argument("--format", choices=("json", "markdown", "csv"), default="json")
    p.set_defaults(handler=_cmd_eval_count)

    p = sub.add_parser(
        "eval-locate", parents=[gt_pred, out], help="mean matched-point distance between prediction and ground truth"
    )
    p.add_argument("--penalty", type=float, default=1.0)
    p.add_argument("--no-squared", action="store_true", help="score plain instead of squared distances")
    p.add_argument("--denominator", choices=("max_card", "gt_card"), default="max_card")
    p.set_defaults(handler=_cmd_eval_locate)

    p = sub.add_parser("tune-threshold", parents=[gt_pred], help="sweep confidence thresholds for best count accuracy")
    p.add_argument("--grid-step", type=float, default=0.001)
    p.add_argument("--nms", type=float, default=0.7)
    p.add_argument("--out", required=True)
    p.add_argument("--svg")
    p.set_defaults(handler=_cmd_tune_threshold)

    p = sub.add_parser("locate-cam", parents=[seed, out], help="extract person locations from an activation map")
    p.add_argument("--map", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--threshold", type=float, default=camloc.DEFAULT_BINARY_THRESHOLD)
    p.add_argument("--map-scale", type=float, default=camloc.CAM_RANGE[1], help="peak of the input map's value scale")
    p.set_defaults(handler=_cmd_locate_cam)

    p = sub.add_parser("winsorize", help="trim frame outliers into a percentile range")
    p.add_argument("infile")
    p.add_argument("outfile")
    p.add_argument("--lo", type=float, default=5.0)
    p.add_argument("--hi", type=float, default=95.0)
    p.set_defaults(handler=_cmd_winsorize)

    p = sub.add_parser("convert", parents=[max_count], help="derive a weaker annotation tier")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--to", choices=("points", "count"), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_convert)

    p = sub.add_parser("split", parents=[max_count, seed], help="deterministic seeded train/test split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--train-count", type=int, required=True)
    p.add_argument("--out-train", required=True)
    p.add_argument("--out-test", required=True)
    p.set_defaults(handler=_cmd_split)

    p = sub.add_parser("ablate", parents=[max_count, seed], help="nested training subsets at growing fractions")
    p.add_argument("--manifest", required=True)
    p.add_argument("--fractions", default="0.1:1.0:0.1", help="start:stop:step or comma list")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(handler=_cmd_ablate)

    p = sub.add_parser("break-even", parents=[out], help="smallest fraction reaching a target accuracy")
    p.add_argument("--curve", required=True)
    p.add_argument("--target", type=float, required=True)
    p.set_defaults(handler=_cmd_break_even)

    p = sub.add_parser("bench", parents=[out], help="serial FPS benchmark of an external predictor")
    p.add_argument("--cmd", required=True)
    p.add_argument("--warmup", type=int, default=100)
    p.add_argument("--iters", type=int, default=10000)
    p.add_argument("--inputs", nargs="*", default=["-"], help="input tokens cycled through the predictor")
    p.set_defaults(handler=_cmd_bench)

    p = sub.add_parser("synth", parents=[seed], help="generate a synthetic blob scene with ground truth")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dims", default="64x64")
    p.add_argument("--sigma", type=float, default=2.0)
    p.add_argument("--min-sep", type=float, default=16.0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("report", parents=[out], help="render stored results as a table")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", choices=("json", "markdown", "csv"), default="markdown")
    p.set_defaults(handler=_cmd_report)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Parse and execute one subcommand, mapping failures to exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        args.handler(args)
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    # SIGTERM unwinds as SystemExit(143): bench reaps its predictor and atomic writes remove their temp file.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(run())


if __name__ == "__main__":
    main()
