"""Span and counter recorder that instruments ircount from the outside.

Each public function of interest is replaced, at every module attribute
through which the toolkit looks it up, by a wrapper that records a span
(name, start, end, parent) and the layer's counters.  Nothing under
``src/`` changes; ``install`` returns a function that puts the original
functions back, so untraced and traced passes run in one process.
Per-pair helpers such as ``postprocess.iou`` are deliberately left alone:
wrapping them would cost more than the work they do.
"""

from __future__ import annotations

import functools
import importlib
import os
from collections import defaultdict
from time import perf_counter
from typing import Callable


def _size(text: str, encoding: str = "utf-8") -> int:
    return len(text) if text.isascii() else len(text.encode(encoding))


def _load_counts(c, args, kwargs, result):
    c["corpus.load_manifest.records"] += len(result)
    c["corpus.load_manifest.bytes"] += os.path.getsize(args[0])


def _save_counts(c, args, kwargs, result):
    c["corpus.save_manifest.records"] += len(args[0])


def _write_counts(c, args, kwargs, result):
    c["fsutil.write_text_atomic.bytes"] += _size(args[1], kwargs.get("encoding", "utf-8"))


def _match_counts(c, args, kwargs, result):
    n, m = len(args[0]), len(args[1])
    size = max(n, m)
    c["assignment.match_points.calls"] += 1
    c["assignment.hungarian.pad_cells"] += size * size - n * m


def _hungarian_counts(c, args, kwargs, result):
    c["assignment.hungarian.cells"] += args[0].rows * args[0].cols


def _nms_counts(c, args, kwargs, result):
    k = len(args[0])
    c["postprocess.nms.boxes_in"] += k
    c["postprocess.nms.pairs"] += k * (k - 1) // 2
    c["postprocess.nms.kept"] += len(result)


def _components_counts(c, args, kwargs, result):
    c["camloc.find_components.fg_pixels"] += int(args[0].sum())
    c["camloc.find_components.components"] += len(result)


def _locate_counts(c, args, kwargs, result):
    c["camloc.locate_people.calls"] += 1
    c["camloc.locate_people.split_calls"] += result.branch == "split"


def _grid_counts(c, args, kwargs, result):
    c["gridio.read_grid.values"] += result[2].size


# span name -> (lookup sites as "module:attribute", counter hook)
SITES: dict[str, tuple[tuple[str, ...], Callable | None]] = {
    "corpus.load_manifest": (("ircount.corpus:load_manifest",), _load_counts),
    "corpus.save_manifest": (("ircount.corpus:save_manifest",), _save_counts),
    "corpus.aligned_records": (("ircount.corpus:aligned_records", "ircount.postprocess:aligned_records"), None),
    "corpus.split_dataset": (("ircount.corpus:split_dataset",), None),
    "fsutil.write_text_atomic": (
        ("ircount.corpus:write_text_atomic", "ircount._gridio:write_text_atomic", "ircount.cli:write_text_atomic"),
        _write_counts,
    ),
    "gridio.read_grid": (("ircount.camloc:read_grid", "ircount.preprocess:read_grid", "ircount.cli:read_grid"), _grid_counts),
    "gridio.write_grid": (("ircount.camloc:write_grid", "ircount.preprocess:write_grid"), None),
    "assignment.match_points": (("ircount.metrics:match_points",), _match_counts),
    "assignment.hungarian": (("ircount.assignment:hungarian",), _hungarian_counts),
    "metrics.maed": (("ircount.metrics:maed",), None),
    "metrics.count_metrics": (("ircount.metrics:count_metrics",), None),
    "postprocess.nms": (("ircount.postprocess:nms",), _nms_counts),
    "postprocess.tune_threshold": (("ircount.postprocess:tune_threshold",), None),
    "camloc.find_components": (("ircount.camloc:find_components",), _components_counts),
    "camloc.locate_people": (("ircount.camloc:locate_people",), _locate_counts),
    "camloc.read_activation_map": (("ircount.camloc:read_activation_map",), None),
    "preprocess.winsorize": (("ircount.preprocess:winsorize",), None),
    "harness.ablate_fractions": (("ircount.harness:ablate_fractions",), None),
    "harness.synth_scene": (("ircount.harness:synth_scene",), None),
    "harness.bench_fps": (("ircount.harness:bench_fps",), None),
}


class Tracer:
    """In-memory spans ``(name, start, end, parent index)`` and counters."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> Callable[[], None]:
        """Wrap every site in ``SITES``; return the function that unwraps them."""
        saved = []
        for name, (sites, count) in SITES.items():
            wrapper = None
            for site in sites:
                module_name, attr = site.split(":")
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                if wrapper is None:
                    wrapper = self.wrap(name, original, count)
                saved.append((module, attr, original))
                setattr(module, attr, wrapper)

        def restore() -> None:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

        return restore

    def summary(self) -> dict:
        """Per-name total and self time, and the summed top-level span time."""
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        top = 0.0
        for name, start, end, parent in self.spans:
            total[name] += end - start
            if parent < 0:
                top += end - start
            else:
                child[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            self_time[name] += end - start - child[index]
        return {"s": dict(total), "self_s": dict(self_time), "top_s": top, "counters": dict(self.counters)}
