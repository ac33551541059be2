"""The measured workload process.

Runs the workload's CLI steps in passes through ``ircount.cli.run()``,
in process, timing each call with tracing off.  In trace mode each call
after the first pass is repeated with the tracer installed.  Each distinct output
is copied aside for the separate checker process and summarized by its
sha256.  Writes one JSON result file and exits.

    python3 perfbench/worker.py --workload c4-eval --seed 1 --seconds 10 \
        --trace 0 --data DATA --work WORK --result result.json

Run it from the working directory that holds DATA and WORK; the paths
are passed to the CLI as given, so outputs and digests do not depend on
where the checkout lives.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from hostspeed import adjust, reference_loop
from ircount import cli
from tracer import Tracer

# Result fields of ``bench`` that are timings; the rest must repeat exactly.
BENCH_TIMINGS = ("mean_latency", "fps", "p50_latency", "p90_latency", "p99_latency")
# Steps repeat within a pass, aiming at TARGET_SAMPLES calls per run, for
# at most STEP_PASS_S seconds per pass.
TARGET_SAMPLES = 12
STEP_PASS_S = 1.5


def step_argvs(data: str, work: str, seed: int, expect: dict) -> dict[str, list[str]]:
    """CLI argv of each step; outputs go to ``WORK/out/<step>/``."""
    mc = ["--max-count", str(expect["corpus"]["max_count"])]
    o = {name: f"{work}/out/{name}" for name in (
        "eval-count", "eval-locate", "tune-threshold", "convert", "split",
        "ablate", "locate-cam", "winsorize", "synth", "bench")}
    grid, synth, bench = expect["grid"], expect["synth"], expect["bench"]
    return {
        "eval-count": ["eval-count", "--gt", f"{data}/gt_test.json", "--pred", f"{data}/pred_counts.json",
                       "--per-class", *mc],
        "eval-locate": ["eval-locate", "--gt", f"{data}/gt_test.json", "--pred", f"{data}/pred_points.json", *mc],
        "tune-threshold": ["tune-threshold", "--gt", f"{data}/gt_test.json", "--pred", f"{data}/pred_boxes.json",
                           "--grid-step", "0.001", "--nms", "0.7", "--out", f"{o['tune-threshold']}/curve.json",
                           "--svg", f"{o['tune-threshold']}/curve.svg", *mc],
        "convert": ["convert", "--in", f"{data}/pred_boxes.json", "--to", "points",
                    "--out", f"{o['convert']}/points.json", *mc],
        "split": ["split", "--manifest", f"{data}/all.json", "--train-count", str(expect["corpus"]["train"]),
                  "--seed", str(seed), "--out-train", f"{o['split']}/train.json",
                  "--out-test", f"{o['split']}/test.json", *mc],
        "ablate": ["ablate", "--manifest", f"{data}/gt_train.json", "--fractions", "0.1:1.0:0.1",
                   "--seed", str(seed), "--out-dir", o["ablate"], *mc],
        "locate-cam": ["locate-cam", "--map", f"{data}/map.cam", "--count", str(grid["count"]),
                       "--threshold", "27", "--seed", str(seed), "--out", f"{o['locate-cam']}/points.json"],
        "winsorize": ["winsorize", f"{data}/frame.frame", f"{o['winsorize']}/out.frame", "--lo", "5", "--hi", "95"],
        "synth": ["synth", "--n", str(synth["n"]), "--dims", synth["dims"], "--seed", str(seed),
                  "--out", o["synth"]],
        "bench": ["bench", "--cmd", "cat", "--warmup", str(bench["warmup"]), "--iters", str(bench["iters"]),
                  "--out", f"{o['bench']}/bench.json"],
    }


def _digest(out_dir: Path, stdout: str) -> tuple[str, dict | None]:
    """sha256 over stdout and every output file; for ``bench`` the timing
    fields are left out of the digest and returned instead."""
    h = hashlib.sha256(stdout.encode())
    bench = None
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "bench.json":
            bench = json.loads(data)
            data = json.dumps({k: v for k, v in bench.items() if k not in BENCH_TIMINGS}, sort_keys=True).encode()
        h.update(str(path.relative_to(out_dir)).encode() + b"\0" + data)
    return h.hexdigest(), bench


class Step:
    """One CLI step: its argv, and what its calls measured and produced."""

    def __init__(self, name: str, argv: list[str], work: Path):
        self.name, self.argv = name, argv
        self.out = work / "out" / name
        self.keep = work / "keep" / name
        self.out.mkdir(parents=True, exist_ok=True)
        # raw and host-adjusted wall times, untraced and traced
        self.times: dict[str, list[float]] = {k: [] for k in ("untraced_s", "untraced_adj", "traced_s", "traced_adj")}
        self.codes: list[int] = []
        self.digests: list[str] = []
        self.kept: dict[str, str] = {}
        self.p50_us: list[float] = []
        self.layers: list[dict] = []
        self.span_overruns = 0
        self.first_spans: list | None = None
        self.repeats = 1
        self.last_s = 0.0

    def call(self, tracer: Tracer | None, ref_before: float) -> tuple[float, float]:
        """One timed CLI call; returns its wall time and the reference-loop
        time measured right after it, which also brackets the next call."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            start = time.perf_counter()
            code = cli.run(self.argv)
            wall = time.perf_counter() - start
        ref_after = reference_loop()
        self.codes.append(code)
        kind = "untraced" if tracer is None else "traced"
        self.times[f"{kind}_s"].append(wall)
        self.times[f"{kind}_adj"].append(adjust(wall, ref_before, ref_after))
        digest, bench = _digest(self.out, buf.getvalue())
        self.digests.append(digest)
        if digest not in self.kept:
            dest = self.keep / str(len(self.kept))
            shutil.copytree(self.out, dest)
            (dest / "stdout.txt").write_text(buf.getvalue(), encoding="utf-8")
            self.kept[digest] = str(dest)
        if bench and "p50_latency" in bench:
            self.p50_us.append(bench["p50_latency"] * 1e6)
        if tracer is not None:
            summary = tracer.summary()
            summary["wall_s"] = wall
            summary["adjust"] = adjust(1.0, ref_before, ref_after)
            self.layers.append(summary)
            if summary["top_s"] > wall:
                self.span_overruns += 1
            if self.first_spans is None:
                self.first_spans = tracer.spans
            tracer.reset()
        return wall, ref_after

    def record(self) -> dict:
        return {
            "argv": self.argv, **self.times, "codes": self.codes, "digests": self.digests,
            "kept": self.kept, "p50_us": self.p50_us, "layers": self.layers, "span_overruns": self.span_overruns,
        }


def measure(steps: list[Step], seconds: float, trace: bool) -> None:
    """Passes over all steps until the time is up.  The first pass calls
    every step once and sets how often each step repeats in the later
    passes; there are always at least two passes.  In trace mode every
    later call is followed by the same call traced, so the two kinds see
    the same host drift."""
    tracer = Tracer() if trace else None
    deadline = time.perf_counter() + seconds
    ref = reference_loop()
    pass_times: list[float] = []
    while True:
        started = time.perf_counter()
        for step in steps:
            for _ in range(step.repeats):
                step.last_s, ref = step.call(None, ref)
                if tracer is not None and pass_times:
                    restore = tracer.install()
                    try:
                        _, ref = step.call(tracer, ref)
                    finally:
                        restore()
        pass_times.append(time.perf_counter() - started)
        remaining = deadline - time.perf_counter()
        if len(pass_times) == 1:
            passes_left = max(1.0, remaining / (pass_times[0] * (2 if trace else 1)))
            for step in steps:
                wanted = math.ceil((TARGET_SAMPLES - 1) / passes_left)
                step.repeats = max(1, min(wanted, int(STEP_PASS_S / max(step.last_s, 1e-9))))
        elif remaining < 0.75 * statistics.median(pass_times[1:]):
            break


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--data", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    expect = json.loads(Path(args.data, "expect.json").read_text(encoding="utf-8"))
    work = Path(args.work)
    ref_start = reference_loop(1_000_000)
    steps = [Step(n, a, work) for n, a in step_argvs(args.data, args.work, args.seed, expect).items()]
    measure(steps, args.seconds, bool(args.trace))
    ref_end = reference_loop(1_000_000)
    result = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "ref_loop_s": [ref_start, ref_end],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "steps": {s.name: s.record() for s in steps},
        "first_spans": {s.name: s.first_spans for s in steps if s.first_spans},
    }
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
