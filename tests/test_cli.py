"""End-to-end command-line behavior: exit codes, files, formats."""

import json
import os
import random
import stat
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import make_box
from ircount import Grid, camloc, corpus, harness, preprocess
from ircount.cli import _parse_fractions, emit_plot, run
from ircount.corpus import BoundingBox, CountLabel, Dataset, ImageRecord, save_manifest
from ircount.harness import FractionCurve
from ircount.postprocess import ThresholdCurve


def write_counts_manifest(path, name, counts):
    records = tuple(
        ImageRecord(f"r{i}", 64, 64, count=CountLabel(c)) for i, c in enumerate(counts)
    )
    save_manifest(Dataset(name, records), path)
    return path


def test_eval_count_identical_manifests(tmp_path, capsys):
    gt = write_counts_manifest(tmp_path / "gt.json", "gt", [0, 1, 2, 3])
    assert run(["eval-count", "--gt", str(gt), "--pred", str(gt)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["accuracy"] == 1.0
    assert payload["mse"] == 0.0
    assert payload["n"] == 4


def test_eval_count_markdown_and_per_class(tmp_path, capsys):
    gt = write_counts_manifest(tmp_path / "gt.json", "gt", [1, 1, 2])
    pred = write_counts_manifest(tmp_path / "pred.json", "pred", [1, 0, 2])
    code = run(
        ["eval-count", "--gt", str(gt), "--pred", str(pred), "--format", "markdown", "--per-class", "--label", "stub"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "| Model | Acc↑ | MSE↓ | MAE↓ |"
    assert "| stub | 66.67 % |" in out
    assert "| Count | Occurrences | Acc↑ |" in out


def test_eval_count_missing_required_flag_is_usage_error(tmp_path, capsys):
    assert run(["eval-count", "--pred", "p.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["frobnicate"]) == 1
    assert "error" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "subcommand" in capsys.readouterr().out.lower() or True


def test_eval_count_missing_file(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run(["eval-count", "--gt", str(missing), "--pred", str(missing)]) == 1
    assert "error" in capsys.readouterr().err


def test_eval_locate_boxes_fall_back_to_centers(tmp_path, capsys):
    record = ImageRecord("a", 64, 64, boxes=(make_box(0.2, 0.2),))
    save_manifest(Dataset("gt", (record,)), tmp_path / "gt.json")
    pred_record = ImageRecord("a", 64, 64, points=(corpus.PointAnnotation(0.2, 0.5),))
    save_manifest(Dataset("pred", (pred_record,)), tmp_path / "pred.json")
    code = run(["eval-locate", "--gt", str(tmp_path / "gt.json"), "--pred", str(tmp_path / "pred.json")])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["maed"] == pytest.approx(0.09, abs=1e-12)
    assert payload["images"] == 1


def test_winsorize_round_trip(tmp_path):
    frame = Grid(10, 10, np.arange(1.0, 101.0))
    preprocess.write_frame(frame, tmp_path / "in.frame")
    code = run(["winsorize", str(tmp_path / "in.frame"), str(tmp_path / "out.frame"), "--lo", "5", "--hi", "95"])
    assert code == 0
    out = preprocess.read_frame(tmp_path / "out.frame")
    assert out.values.min() == 6.0
    assert out.values.max() == 95.0


def test_convert_boxes_to_points_and_counts(tmp_path, capsys):
    record = ImageRecord("a", 64, 64, boxes=(make_box(0.25, 0.75), make_box(0.5, 0.5)))
    save_manifest(Dataset("src", (record,)), tmp_path / "src.json")
    assert run(["convert", "--in", str(tmp_path / "src.json"), "--to", "points", "--out", str(tmp_path / "pts.json")]) == 0
    pts = corpus.load_manifest(tmp_path / "pts.json")
    assert pts.records[0].boxes is None
    assert [p.cx for p in pts.records[0].points] == [0.25, 0.5]
    assert run(["convert", "--in", str(tmp_path / "src.json"), "--to", "count", "--out", str(tmp_path / "cnt.json")]) == 0
    cnt = corpus.load_manifest(tmp_path / "cnt.json")
    assert cnt.records[0].count.count == 2
    assert cnt.records[0].points is None


def test_split_writes_disjoint_manifests(tmp_path, capsys):
    src = write_counts_manifest(tmp_path / "src.json", "src", list(range(10)))
    code = run(
        [
            "split",
            "--manifest", str(src),
            "--train-count", "7",
            "--seed", "3",
            "--out-train", str(tmp_path / "train.json"),
            "--out-test", str(tmp_path / "test.json"),
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"train_size": 7, "test_size": 3, "seed": 3}
    train = corpus.load_manifest(tmp_path / "train.json")
    test = corpus.load_manifest(tmp_path / "test.json")
    assert {r.id for r in train}.isdisjoint({r.id for r in test})


def test_split_seed_env_override(tmp_path, capsys, monkeypatch):
    src = write_counts_manifest(tmp_path / "src.json", "src", list(range(8)))
    args = [
        "split",
        "--manifest", str(src),
        "--train-count", "4",
        "--out-train", str(tmp_path / "a.json"),
        "--out-test", str(tmp_path / "b.json"),
    ]
    monkeypatch.setenv("IRCOUNT_SEED", "77")
    assert run(args) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 77
    env_train = corpus.load_manifest(tmp_path / "a.json")
    monkeypatch.setenv("IRCOUNT_SEED", "78")
    assert run(args + ["--seed", "77"]) == 0
    capsys.readouterr()
    flag_train = corpus.load_manifest(tmp_path / "a.json")
    assert [r.id for r in env_train] == [r.id for r in flag_train]


def test_tune_threshold_writes_curve_and_svg(tmp_path, capsys):
    gt = Dataset("gt", (ImageRecord("a", 64, 64, count=CountLabel(1)),))
    pred = Dataset(
        "pred", (ImageRecord("a", 64, 64, boxes=(BoundingBox(0.5, 0.5, 0.1, 0.1, 0.5005),)),)
    )
    save_manifest(gt, tmp_path / "gt.json")
    save_manifest(pred, tmp_path / "pred.json")
    code = run(
        [
            "tune-threshold",
            "--gt", str(tmp_path / "gt.json"),
            "--pred", str(tmp_path / "pred.json"),
            "--grid-step", "0.01",
            "--nms", "0.7",
            "--out", str(tmp_path / "curve.json"),
            "--svg", str(tmp_path / "curve.svg"),
        ]
    )
    assert code == 0
    curve = json.loads((tmp_path / "curve.json").read_text())
    assert set(curve) == {"thresholds", "accuracies", "best_threshold", "best_accuracy"}
    assert len(curve["thresholds"]) == 101
    assert curve["best_threshold"] == 0.0
    svg = (tmp_path / "curve.svg").read_text()
    assert svg.startswith("<?xml")
    points_attr = svg.split('<polyline points="')[1].split('"')[0]
    assert len(points_attr.split()) == 101


def test_tune_threshold_rejects_grid_step_not_dividing_one(tmp_path, capsys):
    gt = Dataset("gt", (ImageRecord("a", 64, 64, count=CountLabel(1)),))
    pred = Dataset("pred", (ImageRecord("a", 64, 64, boxes=(BoundingBox(0.5, 0.5, 0.1, 0.1, 0.5),)),))
    save_manifest(gt, tmp_path / "gt.json")
    save_manifest(pred, tmp_path / "pred.json")
    code = run(
        [
            "tune-threshold",
            "--gt", str(tmp_path / "gt.json"),
            "--pred", str(tmp_path / "pred.json"),
            "--grid-step", "0.3",
            "--out", str(tmp_path / "curve.json"),
        ]
    )
    assert code == 1
    assert "0.3" in capsys.readouterr().err
    assert not (tmp_path / "curve.json").exists()


def test_locate_cam_output(tmp_path, capsys):
    scene = harness.synth_scene(3, 64, 64, blob_sigma=2.0, min_sep=16.0, seed=5)
    camloc.write_activation_map(scene.amap, tmp_path / "m.cam")
    code = run(
        [
            "locate-cam",
            "--map", str(tmp_path / "m.cam"),
            "--count", "3",
            "--threshold", "27",
            "--seed", "7",
            "--out", str(tmp_path / "points.json"),
        ]
    )
    assert code == 0
    payload = json.loads((tmp_path / "points.json").read_text())
    assert payload["branch"] == "exact"
    assert len(payload["points"]) == 3
    assert payload["degenerate"] is False


def test_locate_cam_map_scale(tmp_path):
    values = np.zeros((8, 8))
    values[4, 4] = 1.0  # unit-scale map
    from ircount._gridio import write_grid

    write_grid(tmp_path / "unit.cam", "CAM", values)
    code = run(
        [
            "locate-cam",
            "--map", str(tmp_path / "unit.cam"),
            "--count", "1",
            "--map-scale", "1.0",
            "--out", str(tmp_path / "p.json"),
        ]
    )
    assert code == 0
    payload = json.loads((tmp_path / "p.json").read_text())
    assert payload["branch"] == "exact"
    assert payload["points"][0] == [(4 + 0.5) / 8, (4 + 0.5) / 8]


def test_ablate_writes_subsets(tmp_path, capsys):
    src = write_counts_manifest(tmp_path / "src.json", "src", list(range(12)))
    code = run(
        [
            "ablate",
            "--manifest", str(src),
            "--fractions", "0.25:1.0:0.25",
            "--seed", "1",
            "--out-dir", str(tmp_path / "subsets"),
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert [s["size"] for s in payload["subsets"]] == [3, 6, 9, 12]
    smallest = corpus.load_manifest(tmp_path / "subsets" / "subset_0.25.json")
    largest = corpus.load_manifest(tmp_path / "subsets" / "subset_1.json")
    assert {r.id for r in smallest} <= {r.id for r in largest}


def test_ablate_subsets_match_fresh_encoding(tmp_path, capsys):
    # ablate's subsets share record objects, so all but the first save of a
    # record reuse its cached line; each file must equal a fresh encoding.
    rng = random.Random(4)
    records = tuple(
        ImageRecord(
            f"r{i}-é",
            64,
            48,
            boxes=tuple(
                make_box(rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8), score=rng.random())
                for _ in range(i % 4)
            ),
            frame_path=f"f/{i}" if i % 2 else None,
        )
        for i in range(30)
    )
    src = tmp_path / "src.json"
    save_manifest(Dataset("src", records), src)
    argv = ["ablate", "--manifest", str(src), "--fractions", "0.1:1.0:0.1", "--seed", "2"]
    assert run([*argv, "--out-dir", str(tmp_path / "subsets")]) == 0
    for entry in json.loads(capsys.readouterr().out)["subsets"]:
        written = corpus.load_manifest(entry["path"])
        fresh = corpus.load_manifest(src).index()
        save_manifest(Dataset(written.name, tuple(fresh[r.id] for r in written)), tmp_path / "e.json")
        assert (tmp_path / "e.json").read_bytes() == Path(entry["path"]).read_bytes()


def test_parse_fractions_range_and_list():
    assert _parse_fractions("0.1:1.0:0.1") == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    assert _parse_fractions("0.25,1") == [0.25, 1.0]


@pytest.mark.parametrize(
    "text, message",
    [
        ("0.1:inf:0.1", "lie in"),
        ("0.1:1:nan", "step"),
        ("nan:1:0.1", "lie in"),
        ("0.1:1:inf", "step"),
        ("0.1:1:0", "step"),
        ("0.1:1:-0.1", "step"),
        ("0.1:2:0.5", "lie in"),
        ("0:1:0.1", "lie in"),
        ("0.1:1:1e-300", "more than"),
    ],
)
def test_parse_fractions_rejects_bad_ranges_at_once(text, message):
    with pytest.raises(ValueError, match=message):
        _parse_fractions(text)


def test_convert_without_boxes_names_the_file(tmp_path, capsys):
    src = write_counts_manifest(tmp_path / "counts.json", "c", [1])
    assert run(["convert", "--in", str(src), "--to", "points", "--out", str(tmp_path / "o.json")]) == 1
    assert str(src) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["report", "break-even"])
@pytest.mark.parametrize(
    "payload", [b"{oops", b"\xff\xfe", b"[" * 200_000 + b"]" * 200_000], ids=["syntax", "non-utf8", "deep"]
)
def test_json_inputs_that_do_not_parse_name_the_file(tmp_path, capsys, command, payload):
    path = tmp_path / "in.json"
    path.write_bytes(payload)
    argv = ["report", "--in", str(path)] if command == "report" else ["break-even", "--curve", str(path), "--target", "0.5"]
    assert run(argv) == 1
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry",
    [
        {"accuracy": 0.5, "mse": 0.1, "mae": 0.1, "n": 2, "per_class": [1, 2]},
        {"accuracy": 0.5, "mse": 0.1, "mae": 0.1, "n": 2, "per_class": {"x": {"accuracy": 1, "occurrences": 1}}},
        {"accuracy": 0.5, "mse": 0.1, "mae": 0.1, "n": 2, "per_class": {"1": {"accuracy": "1", "occurrences": 1}}},
        {"accuracy": "0.5", "mse": 0.1, "mae": 0.1, "n": 2},
        {"accuracy": 0.5, "mse": True, "mae": 0.1, "n": 2},
        {"accuracy": 0.5, "mse": 0.1, "mae": 10**400, "n": 2},
    ],
)
def test_report_rejects_bad_values_naming_the_file(tmp_path, capsys, entry):
    path = tmp_path / "results.json"
    path.write_text(json.dumps([entry]))
    assert run(["report", "--in", str(path)]) == 1
    err = capsys.readouterr().err
    assert str(path) in err and "#0" in err


def test_break_even_cli(tmp_path, capsys):
    curve = {"fractions": [0.1, 1.0], "accuracies": [0.1, 1.0], "label": "demo"}
    (tmp_path / "curve.json").write_text(json.dumps(curve))
    assert run(["break-even", "--curve", str(tmp_path / "curve.json"), "--target", "0.55"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["fraction"] == pytest.approx(0.55, abs=1e-12)
    assert run(["break-even", "--curve", str(tmp_path / "curve.json"), "--target", "1.0"]) == 0
    assert json.loads(capsys.readouterr().out)["fraction"] == 1.0


def test_bench_cli_with_echo_predictor(capsys):
    # --cmd is a single shell-ish string, so pack the loop via base64 to
    # avoid embedded quotes and newlines.
    import base64

    loop = "import sys\nfor line in sys.stdin:\n    print('1', flush=True)\n"
    encoded = base64.b64encode(loop.encode()).decode()
    cmd = f"{sys.executable} -u -c \"import base64;exec(base64.b64decode('{encoded}'))\""
    assert run(["bench", "--cmd", cmd, "--warmup", "2", "--iters", "20"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["timed_iters"] == 20
    assert payload["fps"] > 0
    assert "p50_latency" in payload


def test_bench_cli_predictor_crash_is_runtime_error(capsys):
    cmd = f"{sys.executable} -c \"import sys; sys.exit(3)\""
    assert run(["bench", "--cmd", cmd, "--warmup", "0", "--iters", "5"]) == 2
    assert "runtime error" in capsys.readouterr().err


def test_synth_cli_writes_scene(tmp_path, capsys):
    code = run(
        ["synth", "--n", "4", "--dims", "64x64", "--seed", "3", "--out", str(tmp_path / "scene")]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    ds = corpus.load_manifest(payload["manifest"])
    assert ds.records[0].count.count == 4
    assert len(ds.records[0].points) == 4
    amap = camloc.read_activation_map(payload["map"])
    assert amap.values.max() == 255.0


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_outputs_get_umask_mode(tmp_path, capsys, umask, mode):
    old = os.umask(umask)
    try:
        assert run(["synth", "--n", "2", "--dims", "32x32", "--seed", "1", "--out", str(tmp_path)]) == 0
    finally:
        os.umask(old)
    for name in ("scene.json", "map.cam"):
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == mode


def test_report_cli_renders_table(tmp_path, capsys):
    rows = {
        "rows": [
            {"model": "det-a", "accuracy": 0.8786, "mse": 0.191, "mae": 0.160, "n": 3463},
            {"model": "cls-b", "accuracy": 0.8013, "mse": 0.239, "mae": 0.211, "n": 3463},
        ]
    }
    (tmp_path / "results.json").write_text(json.dumps(rows))
    assert run(["report", "--in", str(tmp_path / "results.json"), "--format", "markdown"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "| Model | Acc↑ | MSE↓ | MAE↓ |"
    assert "| det-a | 87.86 % | 0.191 | 0.160 |" in out
    assert run(["report", "--in", str(tmp_path / "results.json"), "--format", "csv"]) == 0
    assert "Model,Acc↑,MSE↓,MAE↓" in capsys.readouterr().out


def test_report_cli_rejects_malformed(tmp_path, capsys):
    (tmp_path / "bad.json").write_text(json.dumps({"rows": [{"model": "x"}]}))
    assert run(["report", "--in", str(tmp_path / "bad.json")]) == 1
    assert "missing" in capsys.readouterr().err


def test_emit_plot_single_point_curve(tmp_path):
    curve = ThresholdCurve((0.5,), (0.8,), 0.5, 0.8)
    emit_plot(curve, tmp_path / "one.svg")
    svg = (tmp_path / "one.svg").read_text()
    assert svg.count("<circle") == 1


def test_emit_plot_byte_deterministic(tmp_path):
    curve = FractionCurve((0.1, 0.5, 1.0), (0.2, 0.6, 0.9), label="demo")
    emit_plot(curve, tmp_path / "a.svg")
    emit_plot(curve, tmp_path / "b.svg")
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()


def test_emit_plot_fraction_curve_marks_best(tmp_path):
    curve = FractionCurve((0.1, 0.5, 1.0), (0.2, 0.9, 0.6), label="demo")
    emit_plot(curve, tmp_path / "f.svg")
    svg = (tmp_path / "f.svg").read_text()
    assert "best 0.500 @ 0.9000" in svg
