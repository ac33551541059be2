"""Experiment drivers: data-fraction ablation, break-even analysis,
inference-speed benchmarking, and the synthetic scene generator that
backs the toolkit's end-to-end checks.
"""

from __future__ import annotations

import contextlib
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
from ircount.corpus import Dataset, split_dataset
from ircount.metrics import round_half_away
from ircount.postprocess import check_curve

# A predictor maps one input item to a prediction (count, points, boxes,
# or a raw line from an external process). The harness assumes nothing
# about determinism or internals.
Predictor = Callable[[object], object]

PER_ITER_CAP = 10**6  # per-iteration latencies that bench_fps keeps
MAX_ATTEMPTS_PER_BLOB = 1000  # candidate centers synth_scene tries per person

# ProcessPredictor.close() waits this long for the child to exit after its
# stdin closes, then this long again after SIGTERM before sending SIGKILL.
CLOSE_WAIT_S = 10.0
TERM_WAIT_S = 2.0


@dataclass(frozen=True)
class FractionCurve:
    """Accuracy as a function of training-data fraction."""

    fractions: tuple[float, ...]
    accuracies: tuple[float, ...]
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "fractions", tuple(self.fractions))
        object.__setattr__(self, "accuracies", tuple(self.accuracies))
        check_curve("fractions", self.fractions, self.accuracies, open_low=True)
        if not isinstance(self.label, str):
            raise ValueError(f"curve label must be a string, got {self.label!r}")


@dataclass(frozen=True)
class BenchStats:
    """Latency statistics from a serial inference benchmark."""

    warmup_iters: int
    timed_iters: int
    mean_latency: float
    per_iter: tuple[float, ...] | None = None

    @property
    def fps(self) -> float:
        return 1.0 / self.mean_latency


class SynthScene(NamedTuple):
    """A rendered activation map with its planted ground truth: ``(n, 3)``
    point rows and ``(n, 5)`` box rows, laid out as ``ImageRecord``'s."""

    amap: Grid
    points: np.ndarray
    boxes: np.ndarray


DEFAULT_FRACTIONS = tuple(round(0.1 * k, 1) for k in range(1, 11))


def ablate_fractions(ds: Dataset, fractions: Sequence[float], seed: int) -> list[Dataset]:
    """Nested training subsets drawn from one seeded shuffle.

    Each subset is a prefix of ``split_dataset``'s training order for the
    same seed, so every smaller fraction's subset is a prefix of every
    larger one and curves isolate the effect of data quantity alone.
    Subset size is round(fraction * |ds|) with halves away from zero.
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
    order = split_dataset(ds, len(ds), seed)[0].records
    subsets = []
    for f in fractions:
        size = round_half_away(f * len(order))
        subsets.append(Dataset(f"{ds.name}[{f:g}]", order[:size]))
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
) -> BenchStats:
    """Serial latency benchmark: ``warmup`` untimed calls, then ``iters`` timed ones.

    Inputs cycle; each timed call is bracketed by a monotonic clock.
    Per-iteration samples are retained (up to ``PER_ITER_CAP``) so callers
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
        if len(samples) < PER_ITER_CAP:
            samples.append(elapsed / 1e9)
    total_ns = max(total_ns, 1)  # clock-resolution floor keeps fps finite
    mean_latency = total_ns / iters / 1e9
    return BenchStats(warmup, iters, mean_latency, tuple(samples))


def latency_percentile(stats: BenchStats, q: float) -> float:
    """q-th percentile of the retained per-iteration latencies."""
    if not stats.per_iter:
        raise ValueError("stats carry no per-iteration samples")
    return float(np.percentile(np.asarray(stats.per_iter), q))


class ProcessPredictor:
    """Line-protocol wrapper around an external predictor process.

    One input token is written per call and one reply line is read back;
    the round trip is what gets timed. A token must hold no line break
    (``\\n`` or ``\\r``), or the child reads it as several inputs. The child
    is spawned once and reused across calls.
    """

    def __init__(self, cmd: str | Sequence[str]):
        argv = shlex.split(cmd) if isinstance(cmd, str) else list(cmd)
        if not argv:
            raise ValueError(f"predictor command is empty: {cmd!r}")
        self._proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
        )

    def __call__(self, item: object) -> str:
        self._proc.stdin.write(f"{item}\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if line == "":
            raise RuntimeError("predictor process closed its output stream")
        return line.rstrip("\n")

    def close(self) -> None:
        """Close the child's stdin, reap it, then close its stdout. A child
        still running ``CLOSE_WAIT_S`` later is terminated, then killed if
        SIGTERM has not ended it within ``TERM_WAIT_S`` or at once if an
        exception (a second SIGTERM) interrupts a wait; no child outlives this call."""
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=CLOSE_WAIT_S)
        except subprocess.TimeoutExpired:
            self._proc.terminate()
            with contextlib.suppress(subprocess.TimeoutExpired):
                self._proc.wait(timeout=TERM_WAIT_S)
        finally:
            self._proc.kill()  # does nothing once the child has been reaped
            self._proc.wait()
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
) -> Grid:
    """Render isotropic Gaussian blobs, composited by elementwise max.

    Max composition keeps every blob peak exactly at the top of
    ``CAM_RANGE`` and the map within that range. Each blob is computed
    only within ``ceil(sigma * sqrt(1500))`` pixels of its center: past
    that its exponent exceeds 750, where ``exp`` is exactly 0.0.
    """
    if isinstance(sigmas, (int, float)):
        sigmas = [float(sigmas)] * len(centers_px)
    if len(sigmas) != len(centers_px):
        raise ValueError("one sigma per center required")
    grid = np.zeros((height, width), dtype=np.float64)
    for (cx, cy), sigma in zip(centers_px, sigmas):
        if not 0.0 < sigma < math.inf:
            raise ValueError(f"blob sigma must be positive and finite, got {sigma}")
        if not (math.isfinite(cx) and math.isfinite(cy)):
            raise ValueError(f"blob center must be finite, got {(cx, cy)}")
        reach = math.ceil(sigma * math.sqrt(1500.0))
        x0, x1 = max(math.floor(cx) - reach, 0), min(math.ceil(cx) + reach + 1, width)
        y0, y1 = max(math.floor(cy) - reach, 0), min(math.ceil(cy) + reach + 1, height)
        if x0 >= x1 or y0 >= y1:
            continue
        xs, ys = np.arange(x0, x1), np.arange(y0, y1)[:, np.newaxis]
        blob = CAM_RANGE[1] * np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2.0 * sigma * sigma))
        window = grid[y0:y1, x0:x1]
        np.maximum(window, blob, out=window)
    return Grid(width, height, grid, CAM_RANGE)


def synth_scene(
    n_people: int,
    width: int,
    height: int,
    blob_sigma: float = 2.0,
    min_sep: float = 16.0,
    seed: int = 0,
) -> SynthScene:
    """Plant well-separated Gaussian blobs and return map plus ground truth.

    Centers sit on pixel positions at least ``min_sep`` pixels apart and at
    least two sigma from every border. Each person gets a center point and
    a four-sigma-wide box, both with score 1.0; the annotations use the
    same (p + 0.5)/dim normalization as component centroids.

    A count above either packing bound raises before any placement; below
    them, placement gives up after ``MAX_ATTEMPTS_PER_BLOB`` per person.
    """
    if n_people < 0:
        raise ValueError(f"n_people must be >= 0, got {n_people}")
    if not 0.0 < min_sep < math.inf:
        raise ValueError(f"min_sep must be positive and finite, got {min_sep}")
    if not 0.0 < blob_sigma < math.inf:
        raise ValueError(f"blob_sigma must be positive and finite, got {blob_sigma}")
    margin = max(1, math.ceil(2 * blob_sigma))
    w, h = width - 1 - 2 * margin, height - 1 - 2 * margin  # centers span [margin, margin + w] in x, likewise y
    if n_people and min(w, h) < 0:
        raise ValueError(f"no room for blobs: {width} x {height} with margin {margin}")
    # Packing bounds: one center per pixel, and the disks of diameter min_sep
    # around the centers do not overlap and stay in that box grown by min_sep / 2.
    fit = min((w + 1) * (h + 1), 4 / math.pi * (w + min_sep) / min_sep * (h + min_sep) / min_sep)
    if n_people > max(fit, 0):
        raise ValueError(
            f"could not place {n_people} centers >= {min_sep} px apart "
            f"in {width} x {height}: at most {math.floor(fit)} fit"
        )
    rng = random.Random(seed)
    centers: list[tuple[int, int]] = []
    attempts = 0
    while len(centers) < n_people:
        if attempts >= MAX_ATTEMPTS_PER_BLOB * n_people:
            raise ValueError(
                f"could not place {n_people} centers >= {min_sep} px apart "
                f"in {width} x {height} after {attempts} attempts"
            )
        attempts += 1
        cand = (rng.randint(margin, width - 1 - margin), rng.randint(margin, height - 1 - margin))
        if all(math.hypot(cand[0] - cx, cand[1] - cy) >= min_sep for cx, cy in centers):
            centers.append(cand)
    amap = render_blobs(width, height, centers, blob_sigma)
    xy = (np.array(centers, dtype=np.float64).reshape(-1, 2) + 0.5) / (width, height)
    ones = np.ones((n_people, 1))
    size = (min(1.0, 4.0 * blob_sigma / width), min(1.0, 4.0 * blob_sigma / height))
    return SynthScene(amap, np.hstack((xy, ones)), np.hstack((xy, ones * size, ones)))
