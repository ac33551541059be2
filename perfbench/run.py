"""Seeded end-to-end benchmark of the ircount CLI.

    python3 perfbench/run.py --workload c4-eval --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  One run:

1. generates the workload's inputs from the seed in its own process
   (``gen.py``) under ``.perfbench_work/`` in the checkout;
2. with ``--trace 0``, times fresh interpreters that import
   ``ircount.cli`` and build the parser (``setup_s``);
3. runs the measured process (``worker.py``), which calls
   ``ircount.cli.run()`` for every step, in passes, for ``--seconds``;
   with ``--trace 1`` each call after the first pass is repeated with
   spans recorded around the toolkit's public functions (``tracer.py``);
4. checks every distinct output in a third process (``check.py``);
5. prints one line per metric, a ``report`` line (host record, noise
   reference, output digests, failure count), and last a JSON line with
   ``correct``, ``attempted``, ``failed`` and ``metrics``.

Inputs and outputs are deleted at the end.  The benchmark drops no file
cache and reads no hardware counters: timings are wall-clock times of
its own processes on whatever else the host is running, which is why
each run also times a fixed reference loop at its start and end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import adjust, reference_loop

HERE = Path(__file__).resolve().parent
WORKLOADS = ("c4-eval", "crowd-100", "frame-640")
SETUP_RUNS = 7
DEADLINE_S = 170  # every run must end within 180 s

STEP_METRICS = {
    "eval-count": "eval_count_s",
    "eval-locate": "eval_locate_s",
    "tune-threshold": "tune_threshold_s",
    "convert": "convert_s",
    "split": "split_s",
    "ablate": "ablate_s",
    "locate-cam": "locate_cam_s",
    "winsorize": "winsorize_s",
    "synth": "synth_s",
    "bench": "bench_s",
}

# Per-layer metrics: (name, unit, what). what is "s"/"self_s" (span time,
# summed over one pass of the steps) or "count" (a counter per pass).
LAYER_METRICS = [
    ("corpus.load_manifest.self_s", "s", "self_s"),
    ("corpus.load_manifest.records", "count", "count"),
    ("corpus.load_manifest.bytes", "bytes", "count"),
    ("corpus.save_manifest.self_s", "s", "self_s"),
    ("corpus.save_manifest.records", "count", "count"),
    ("fsutil.write_text_atomic.s", "s", "s"),
    ("fsutil.write_text_atomic.bytes", "bytes", "count"),
    ("corpus.aligned_records.s", "s", "s"),
    ("corpus.split_dataset.s", "s", "s"),
    ("harness.ablate_fractions.s", "s", "s"),
    ("assignment.match_points.self_s", "s", "self_s"),
    ("assignment.match_points.calls", "count", "count"),
    ("assignment.hungarian.s", "s", "s"),
    ("assignment.hungarian.cells", "count", "count"),
    ("metrics.maed.self_s", "s", "self_s"),
    ("metrics.count_metrics.s", "s", "s"),
    ("postprocess.nms.s", "s", "s"),
    ("postprocess.nms.boxes_in", "count", "count"),
    ("postprocess.nms.pairs", "count", "count"),
    ("postprocess.tune_threshold.self_s", "s", "self_s"),
    ("camloc.find_components.s", "s", "s"),
    ("camloc.find_components.fg_pixels", "count", "count"),
    ("camloc.find_components.components", "count", "count"),
    ("camloc.locate_people.self_s", "s", "self_s"),
    ("camloc.read_activation_map.self_s", "s", "self_s"),
    ("gridio.read_grid.s", "s", "s"),
    ("gridio.read_grid.values", "count", "count"),
    ("gridio.write_grid.self_s", "s", "self_s"),
    ("preprocess.winsorize.s", "s", "s"),
    ("harness.synth_scene.s", "s", "s"),
]
# Ratios of two counters: (name, numerator, denominator).
LAYER_RATIOS = [
    ("assignment.hungarian.pad_frac", "assignment.hungarian.pad_cells", "assignment.hungarian.cells"),
    ("postprocess.nms.kept_frac", "postprocess.nms.kept", "postprocess.nms.boxes_in"),
    ("camloc.locate_people.branch_split", "camloc.locate_people.split_calls", "camloc.locate_people.calls"),
]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _run(argv: list[str], env: dict, cwd: Path, deadline: float) -> None:
    timeout = max(1.0, deadline - time.monotonic())
    subprocess.run(argv, env=env, cwd=cwd, check=True, timeout=timeout, stdout=subprocess.DEVNULL)


def setup_seconds(env: dict, cwd: Path) -> tuple[list[float], list[float]]:
    """Raw and host-adjusted wall times of fresh interpreters importing the
    CLI and building its parser; one untimed run first so bytecode caches
    exist, as they do for an installed package."""
    argv = [sys.executable, "-c", "import ircount.cli as c; c.build_parser()"]
    raw, adjusted = [], []
    ref = reference_loop()
    for i in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        subprocess.run(argv, env=env, cwd=cwd, check=True, timeout=60)
        wall = time.perf_counter() - start
        ref_after = reference_loop()
        if i:
            raw.append(wall)
            adjusted.append(adjust(wall, ref, ref_after))
        ref = ref_after
    return raw, adjusted


def source_digest(src: Path) -> str:
    """sha256 over the toolkit's sources: identifies the code under test
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha(root: Path) -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def step_failures(name: str, record: dict, verdicts: dict) -> tuple[int, list[str]]:
    """Calls that exited non-zero, failed their output check, produced an
    output differing from the step's first one, or whose top-level spans
    exceeded the call's wall time."""
    first = record["digests"][0]
    failed = 0
    for code, digest in zip(record["codes"], record["digests"]):
        failed += code != 0 or verdicts[digest] != "ok" or digest != first
    failed += record["span_overruns"]
    problems = [f"{name}: {v}" for v in verdicts.values() if v != "ok"]
    if len(record["kept"]) > 1:
        problems.append(f"{name}: {len(record['kept'])} different outputs from identical calls")
    if record["span_overruns"]:
        problems.append(f"{name}: top-level spans exceed wall time in {record['span_overruns']} calls")
    return failed, problems


def layer_metrics(steps: dict) -> dict[str, tuple[float, str]]:
    """Per-layer figures for one pass over the steps: the median over each
    step's traced calls, summed over the steps.  Span times are
    host-adjusted with the factor of the call they belong to."""
    span_time: dict[str, dict[str, float]] = {"s": {}, "self_s": {}}
    counters: dict[str, float] = {}
    cli_self = traced = untraced = 0.0
    for record in steps.values():
        calls = record["layers"]
        for kind in ("s", "self_s"):
            names = {n for c in calls for n in c[kind]}
            for n in names:
                per_call = [c[kind].get(n, 0.0) * c["adjust"] for c in calls]
                span_time[kind][n] = span_time[kind].get(n, 0.0) + _median(per_call)
        for n, v in calls[0]["counters"].items():
            counters[n] = counters.get(n, 0.0) + v
        cli_self += _median([(c["wall_s"] - c["top_s"]) * c["adjust"] for c in calls])
        traced += _median(record["traced_adj"])
        untraced += _median(record["untraced_adj"][1:])  # the first call has no traced twin
    out: dict[str, tuple[float, str]] = {}
    for name, unit, what in LAYER_METRICS:
        layer = name.rsplit(".", 1)[0]
        value = counters.get(name, 0.0) if what == "count" else span_time[what].get(layer, 0.0)
        out[name] = (value, unit)
    for name, num, den in LAYER_RATIOS:
        out[name] = (counters.get(num, 0.0) / counters[den] if counters.get(den) else 0.0, "frac")
    p50 = steps["bench"]["p50_us"]
    out["harness.bench_fps.call_p50_us"] = (_median(p50), "us")
    out["cli.self_s"] = (cli_self, "s")
    out["trace_overhead_frac"] = (traced / untraced - 1.0, "frac")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", help="also write the full report, with the spans of each step's first traced call, here")
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "ircount" / "cli.py").is_file():
        print(f"error: {root} holds no ircount sources (src/ircount/cli.py); run from the checkout root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    # On SIGTERM unwind normally: the running child is killed and waited
    # for, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # One CPU for the run and every process it starts: cross-CPU wakeups
    # on a shared virtual machine cost more, and vary more, than the work.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    host = {
        "git_sha": git_sha(root),
        "src_sha256": source_digest(src),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "loadavg_start": os.getloadavg(),
    }
    env = {k: v for k, v in os.environ.items() if k != "IRCOUNT_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    base = root / ".perfbench_work"
    work = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        py = sys.executable
        _run([py, str(HERE / "gen.py"), "--workload", args.workload, "--seed", str(args.seed),
              "--out", "data"], env, work, deadline)
        setup_raw, setup = setup_seconds(env, work) if not args.trace else ([], [])
        _run([py, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace), "--data", "data", "--work", "run",
              "--result", "result.json"], env, work, deadline)
        _run([py, str(HERE / "check.py"), "--data", "data", "--result", "result.json",
              "--out", "checks.json"], env, work, deadline)
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
        verdicts = json.loads((work / "checks.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass

    steps = result["steps"]
    attempted = sum(len(r["codes"]) for r in steps.values())
    failed = 0
    problems: list[str] = []
    for name, record in steps.items():
        f, p = step_failures(name, record, verdicts[name])
        failed += f
        problems += p

    if args.trace:
        metrics = layer_metrics(steps)
    else:
        metrics = {"setup_s": (_median(setup), "s")}
        for step, name in STEP_METRICS.items():
            metrics[name] = (_median(steps[step]["untraced_adj"]), "s")
        metrics["peak_rss_mb"] = (result["peak_rss_kb"] / 1024, "MB")

    host.update(python=result["python"], numpy=result["numpy"], loadavg_end=os.getloadavg())
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "ref_loop_s": result["ref_loop_s"],
        "failed_frac": failed / attempted,
        "problems": problems,
        "samples": {n: [len(r["untraced_s"]), len(r["traced_s"])] for n, r in steps.items()},
        "raw_median_s": {n: _median(r["untraced_s"]) for n, r in steps.items()},
        "setup_raw_median_s": _median(setup_raw),
        "digests": {n: r["digests"][0] for n, r in steps.items()},
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:38s} {value:14.6f} {unit}")
    print(f"{'failed_frac':38s} {failed / attempted:14.6f} frac ({failed}/{attempted} step calls)")
    for line in problems:
        print(f"problem: {line}")
    print("report: " + json.dumps(report, sort_keys=True))
    if args.report:
        report["setup_s"] = {"raw": setup_raw, "adjusted": setup}
        report["steps"] = {
            n: {k: r[k] for k in ("argv", "untraced_s", "untraced_adj", "traced_s", "traced_adj", "p50_us")}
            for n, r in steps.items()
        }
        report["metrics"] = {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}
        report["first_spans"] = result["first_spans"]
        Path(args.report).write_text(json.dumps(report, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
