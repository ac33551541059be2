"""Experiment drivers: data-fraction ablation, break-even analysis,
inference-speed benchmarking, and the synthetic scene generator that
backs the toolkit's end-to-end checks.
"""

from __future__ import annotations

import itertools
import math
import random
import shlex
import subprocess
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ircount._gridio import Grid
from ircount.camloc import CAM_RANGE
from ircount.corpus import BoundingBox, Dataset, PointAnnotation
from ircount.metrics import round_half_away

# A predictor maps one input item to a prediction (count, points, boxes,
# or a raw line from an external process). The harness assumes nothing
# about determinism or internals.
Predictor = Callable[[object], object]


@dataclass(frozen=True)
class FractionCurve:
    """Accuracy as a function of training-data fraction."""

    fractions: tuple[float, ...]
    accuracies: tuple[float, ...]
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "fractions", tuple(self.fractions))
        object.__setattr__(self, "accuracies", tuple(self.accuracies))
        if len(self.fractions) != len(self.accuracies) or not self.fractions:
            raise ValueError("fractions and accuracies must be equal-length and non-empty")
        if any(b <= a for a, b in zip(self.fractions, self.fractions[1:])):
            raise ValueError("fractions must be strictly ascending")
        if self.fractions[0] <= 0.0 or self.fractions[-1] > 1.0:
            raise ValueError("fractions must lie in (0, 1]")
        if any(not 0.0 <= a <= 1.0 for a in self.accuracies):
            raise ValueError("accuracies must lie in [0, 1]")


@dataclass(frozen=True)
class BenchStats:
    """Latency statistics from a serial inference benchmark."""

    warmup_iters: int
    timed_iters: int
    mean_latency: float
    fps: float
    per_iter: tuple[float, ...] | None = None


class SynthScene(NamedTuple):
    """A rendered activation map with its planted ground truth."""

    amap: Grid
    points: list[PointAnnotation]
    boxes: list[BoundingBox]


DEFAULT_FRACTIONS = tuple(round(0.1 * k, 1) for k in range(1, 11))


def ablate_fractions(ds: Dataset, fractions: Sequence[float], seed: int) -> list[Dataset]:
    """Nested training subsets drawn from one seeded shuffle.

    Every smaller fraction's subset is a prefix of every larger one, so
    curves isolate the effect of data quantity alone. Subset size is
    round(fraction * |ds|) with halves away from zero.
    """
    if not len(ds):
        raise ValueError("cannot ablate an empty dataset")
    if not fractions:
        raise ValueError("fractions must be non-empty")
    fractions = [float(f) for f in fractions]
    if any(not 0.0 < f <= 1.0 for f in fractions):
        raise ValueError("fractions must lie in (0, 1]")
    if any(b <= a for a, b in zip(fractions, fractions[1:])):
        raise ValueError("fractions must be strictly ascending")
    order = list(ds.records)
    random.Random(seed).shuffle(order)
    subsets = []
    for f in fractions:
        size = round_half_away(f * len(order))
        subsets.append(Dataset(f"{ds.name}[{f:g}]", tuple(order[:size])))
    return subsets


def break_even(curve: FractionCurve, target_accuracy: float) -> float | None:
    """Smallest fraction whose piecewise-linear accuracy reaches the target.

    Returns None when the curve never reaches the target.
    """
    if not 0.0 <= target_accuracy <= 1.0:
        raise ValueError(f"target accuracy must be in [0, 1], got {target_accuracy}")
    fr, acc = curve.fractions, curve.accuracies
    if acc[0] >= target_accuracy:
        return fr[0]
    for i in range(len(fr) - 1):
        a0, a1 = acc[i], acc[i + 1]
        if a0 < target_accuracy <= a1:
            return fr[i] + (target_accuracy - a0) * (fr[i + 1] - fr[i]) / (a1 - a0)
    return None


def bench_fps(
    predictor: Predictor,
    warmup: int,
    iters: int,
    inputs: Sequence[object],
    per_iter_cap: int = 10**6,
) -> BenchStats:
    """Serial latency benchmark: ``warmup`` untimed calls, then ``iters`` timed ones.

    Inputs cycle; each timed call is bracketed by a monotonic clock.
    Per-iteration samples are retained (up to ``per_iter_cap``) so callers
    can report percentiles beyond the mean.
    """
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    if not inputs:
        raise ValueError("inputs must be non-empty")
    stream = itertools.cycle(inputs)
    for i in range(warmup):
        item = next(stream)
        try:
            predictor(item)
        except Exception as exc:
            raise RuntimeError(f"predictor failed at warmup iteration {i}") from exc
    total_ns = 0
    samples: list[float] = []
    for i in range(iters):
        item = next(stream)
        start = time.perf_counter_ns()
        try:
            predictor(item)
        except Exception as exc:
            raise RuntimeError(f"predictor failed at timed iteration {i}") from exc
        elapsed = time.perf_counter_ns() - start
        total_ns += elapsed
        if len(samples) < per_iter_cap:
            samples.append(elapsed / 1e9)
    total_ns = max(total_ns, 1)  # clock-resolution floor keeps fps finite
    mean_latency = total_ns / iters / 1e9
    return BenchStats(warmup, iters, mean_latency, 1.0 / mean_latency, tuple(samples))


def latency_percentile(stats: BenchStats, q: float) -> float:
    """q-th percentile of the retained per-iteration latencies."""
    if not stats.per_iter:
        raise ValueError("stats carry no per-iteration samples")
    return float(np.percentile(np.asarray(stats.per_iter), q))


class ProcessPredictor:
    """Line-protocol wrapper around an external predictor process.

    One input token is written per call and one reply line is read back;
    the round trip is what gets timed. The child is spawned once and
    reused across calls.
    """

    def __init__(self, cmd: str | Sequence[str]):
        argv = shlex.split(cmd) if isinstance(cmd, str) else list(cmd)
        self._proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
        )

    def __call__(self, item: object) -> str:
        assert self._proc.stdin is not None and self._proc.stdout is not None
        self._proc.stdin.write(f"{item}\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if line == "":
            raise RuntimeError("predictor process closed its output stream")
        return line.rstrip("\n")

    def close(self) -> None:
        """Close the child's stdin, reap it, then close its stdout. A child
        still running 10 s later is terminated, then killed if SIGTERM has
        not ended it within 2 s, so no child outlives this call."""
        if self._proc.stdin is not None:
            self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=2)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        if self._proc.stdout is not None:
            self._proc.stdout.close()

    def __enter__(self) -> "ProcessPredictor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def render_blobs(
    width: int,
    height: int,
    centers_px: Sequence[tuple[int, int]],
    sigmas: float | Sequence[float],
    peak: float = 255.0,
) -> Grid:
    """Render isotropic Gaussian blobs, composited by elementwise max.

    Max composition keeps every blob peak exactly at ``peak`` and the map
    within [0, peak].
    """
    if isinstance(sigmas, (int, float)):
        sigmas = [float(sigmas)] * len(centers_px)
    if len(sigmas) != len(centers_px):
        raise ValueError("one sigma per center required")
    grid = np.zeros((height, width), dtype=np.float64)
    ys, xs = np.mgrid[0:height, 0:width]
    for (cx, cy), sigma in zip(centers_px, sigmas):
        if sigma <= 0:
            raise ValueError(f"blob sigma must be positive, got {sigma}")
        blob = peak * np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2.0 * sigma * sigma))
        np.maximum(grid, blob, out=grid)
    return Grid(width, height, grid, CAM_RANGE)


def synth_scene(
    n_people: int,
    width: int,
    height: int,
    blob_sigma: float = 2.0,
    min_sep: float = 16.0,
    seed: int = 0,
    max_attempts_per_blob: int = 1000,
) -> SynthScene:
    """Plant well-separated Gaussian blobs and return map plus ground truth.

    Centers sit on pixel positions at least ``min_sep`` pixels apart and at
    least two sigma from every border. Each person gets a center point and
    a four-sigma-wide box; the annotations use the same (p + 0.5)/dim
    normalization as component centroids.
    """
    if n_people < 0:
        raise ValueError(f"n_people must be >= 0, got {n_people}")
    if min_sep <= 0:
        raise ValueError(f"min_sep must be positive, got {min_sep}")
    if blob_sigma <= 0:
        raise ValueError(f"blob_sigma must be positive, got {blob_sigma}")
    margin = max(1, math.ceil(2 * blob_sigma))
    if n_people and (width - 1 - margin < margin or height - 1 - margin < margin):
        raise ValueError(
            f"no room for blobs: {width} x {height} with margin {margin}"
        )
    rng = random.Random(seed)
    centers: list[tuple[int, int]] = []
    attempts = 0
    while len(centers) < n_people:
        if attempts >= max_attempts_per_blob * n_people:
            raise ValueError(
                f"could not place {n_people} centers >= {min_sep} px apart "
                f"in {width} x {height} after {attempts} attempts"
            )
        attempts += 1
        cand = (rng.randint(margin, width - 1 - margin), rng.randint(margin, height - 1 - margin))
        if all(math.hypot(cand[0] - cx, cand[1] - cy) >= min_sep for cx, cy in centers):
            centers.append(cand)
    amap = render_blobs(width, height, centers, blob_sigma)
    points = [PointAnnotation((cx + 0.5) / width, (cy + 0.5) / height) for cx, cy in centers]
    box_w = min(1.0, 4.0 * blob_sigma / width)
    box_h = min(1.0, 4.0 * blob_sigma / height)
    boxes = [BoundingBox(p.cx, p.cy, box_w, box_h, p.score) for p in points]
    return SynthScene(amap, points, boxes)
