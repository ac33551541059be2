"""The benchmark's tracer wraps toolkit functions by module attribute.

A rename in ``src/`` that removes one of those attributes, or a signature
change that breaks a counter hook, would only show up in the next traced
benchmark run; these tests make it fail here.
"""

import importlib
import time
import types
from pathlib import Path

import numpy as np

from conftest import make_dataset
from ircount import Grid, corpus, preprocess
from ircount.corpus import Dataset, ImageRecord
from ircount.cli import run

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    """Execute the tracer's source without an import, so no bytecode cache
    is written next to it."""
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER_PATH.read_text(), str(TRACER_PATH), "exec"), module.__dict__)
    return module


def resolve(site):
    module_name, attr = site.split(":")
    return importlib.import_module(module_name), attr


def test_every_tracer_site_resolves_and_is_restored():
    tracer = load_tracer()
    sites = [resolve(site) for names, _ in tracer.SITES.values() for site in names]
    originals = [getattr(module, attr) for module, attr in sites]
    restore = tracer.Tracer().install()
    try:
        for (module, attr), original in zip(sites, originals):
            assert getattr(module, attr).__wrapped__ is original, f"{module.__name__}.{attr} not wrapped"
    finally:
        restore()
    for (module, attr), original in zip(sites, originals):
        assert getattr(module, attr) is original, f"{module.__name__}.{attr} not restored"


def test_traced_commands_fill_every_hook_counter(tmp_path):
    corpus.save_manifest(make_dataset(6), tmp_path / "counts.json")
    preprocess.write_frame(Grid(8, 8, np.arange(1.0, 65.0)), tmp_path / "in.frame")
    scene, out = tmp_path / "scene", tmp_path / "out"
    out.mkdir()
    gt = str(scene / "scene.json")
    # The scene compared with itself settles without match_points. Two matchings of this pair of
    # sets tie, so match_points refuses the first solve, and hungarian runs again on exact distances.
    for name, points in (("tie_gt", [(0.0, 0.5), (0.125, 0.5)]), ("tie_pred", [(0.5, 0.5), (0.75, 0.5)])):
        record = ImageRecord("tie", 64, 64, points=np.array([(x, y, 1.0) for x, y in points]))
        corpus.save_manifest(Dataset(name, (record,)), tmp_path / f"{name}.json")
    commands = [
        ["synth", "--n", "3", "--seed", "5", "--out", str(scene)],
        ["convert", "--in", gt, "--to", "points", "--out", str(out / "points.json")],
        ["eval-locate", "--gt", gt, "--pred", str(out / "points.json"), "--out", str(out / "maed.json")],
        ["eval-locate", "--gt", str(tmp_path / "tie_gt.json"), "--pred", str(tmp_path / "tie_pred.json"),
         "--out", str(out / "tie.json")],
        ["tune-threshold", "--gt", gt, "--pred", gt, "--grid-step", "0.1", "--out", str(out / "curve.json")],
        ["locate-cam", "--map", str(scene / "map.cam"), "--count", "2", "--seed", "0", "--out", str(out / "cam.json")],
        ["split", "--manifest", str(tmp_path / "counts.json"), "--train-count", "4", "--seed", "1",
         "--out-train", str(out / "train.json"), "--out-test", str(out / "test.json")],
        ["winsorize", str(tmp_path / "in.frame"), str(out / "out.frame")],
    ]
    tracer = load_tracer().Tracer()
    restore = tracer.install()
    try:
        start = time.perf_counter()
        codes = [run(argv) for argv in commands]
        wall = time.perf_counter() - start
    finally:
        restore()
    assert codes == [0] * len(commands)
    summary = tracer.summary()
    counters = summary["counters"]
    hooked = {
        "corpus.load_manifest.records", "corpus.load_manifest.bytes", "corpus.save_manifest.records",
        "fsutil.write_text_atomic.bytes", "assignment.match_points.calls", "assignment.hungarian.pad_cells",
        "assignment.hungarian.cells", "postprocess.nms.boxes_in", "postprocess.nms.pairs",
        "postprocess.nms.kept", "camloc.find_components.fg_pixels", "camloc.find_components.components",
        "camloc.locate_people.calls", "camloc.locate_people.split_calls", "gridio.read_grid.values",
    }
    assert hooked <= counters.keys()
    for name in ("assignment.match_points.calls", "assignment.hungarian.cells", "postprocess.nms.boxes_in",
                 "camloc.find_components.components", "gridio.read_grid.values", "corpus.load_manifest.records"):
        assert counters[name] > 0, name
    # Only the tie reaches match_points, and its 2 x 2 matrix is solved twice.
    assert (counters["assignment.match_points.calls"], counters["assignment.hungarian.cells"]) == (1, 8)
    assert 0.0 < summary["top_s"] <= wall
