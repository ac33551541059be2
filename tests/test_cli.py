"""End-to-end command-line behavior: exit codes, files, formats."""

import csv
import errno
import hashlib
import json
import os
import random
import shlex
import shutil
import signal
import stat
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

from conftest import make_box
from ircount import Grid, _fsutil, camloc, cli, corpus, harness, preprocess
from ircount._gridio import write_grid
from ircount.cli import _parse_fractions, emit_plot, run
from ircount.corpus import BoundingBox, CountLabel, Dataset, ImageRecord, PointAnnotation, save_manifest
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


def test_eval_count_table_keeps_a_label_with_separators_in_one_cell(tmp_path, capsys):
    gt = write_counts_manifest(tmp_path / "gt.json", "gt", [1, 1, 2])
    pred = write_counts_manifest(tmp_path / "pred.json", "pred", [1, 0, 2])
    base = ["eval-count", "--gt", str(gt), "--pred", str(pred)]
    assert run([*base, "--format", "csv", "--label", 'yolo, v8 "tiny"\nb']) == 0
    header, row = csv.reader(capsys.readouterr().out.splitlines(keepends=True))
    assert header == ["Model", "Acc↑", "MSE↓", "MAE↓"]
    assert row == ['yolo, v8 "tiny"\nb', "66.67 %", "0.333", "0.333"]
    assert run([*base, "--format", "markdown", "--label", "a|b"]) == 0
    assert capsys.readouterr().out.splitlines()[2] == "| a\\|b | 66.67 % | 0.333 | 0.333 |"


def test_eval_count_missing_required_flag_is_usage_error(tmp_path, capsys):
    assert run(["eval-count", "--pred", "p.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["frobnicate"]) == 1
    assert "error" in capsys.readouterr().err


# Each subcommand's minimal valid argv, the namespace it parses to (without
# ``handler``), and the usage error the bare subcommand gives.
PARSED_NAMESPACES = [
    (["eval-count", "--gt", "g.json", "--pred", "p.json"],
     {"format": "json", "gt": "g.json", "label": "prediction", "max_count": 20, "out": None,
      "per_class": False, "pred": "p.json"},
     "--gt, --pred"),
    (["eval-locate", "--gt", "g.json", "--pred", "p.json"],
     {"denominator": "max_card", "gt": "g.json", "max_count": 20, "no_squared": False, "out": None,
      "penalty": 1.0, "pred": "p.json"},
     "--gt, --pred"),
    (["tune-threshold", "--gt", "g.json", "--pred", "p.json", "--out", "c.json"],
     {"grid_step": 0.001, "gt": "g.json", "max_count": 20, "nms": 0.7, "out": "c.json", "pred": "p.json",
      "svg": None},
     "--gt, --pred, --out"),
    (["locate-cam", "--map", "m.cam", "--count", "3"],
     {"count": 3, "map": "m.cam", "map_scale": 255.0, "out": None, "seed": 0, "threshold": 27.0},
     "--map, --count"),
    (["winsorize", "in.frame", "out.frame"],
     {"hi": 95.0, "infile": "in.frame", "lo": 5.0, "outfile": "out.frame"},
     "infile, outfile"),
    (["convert", "--in", "a.json", "--to", "points", "--out", "b.json"],
     {"infile": "a.json", "max_count": 20, "out": "b.json", "to": "points"},
     "--in, --to, --out"),
    (["split", "--manifest", "a.json", "--train-count", "2", "--out-train", "t.json", "--out-test", "s.json"],
     {"manifest": "a.json", "max_count": 20, "out_test": "s.json", "out_train": "t.json", "seed": 0,
      "train_count": 2},
     "--manifest, --train-count, --out-train, --out-test"),
    (["ablate", "--manifest", "a.json", "--out-dir", "d"],
     {"fractions": "0.1:1.0:0.1", "manifest": "a.json", "max_count": 20, "out_dir": "d", "seed": 0},
     "--manifest, --out-dir"),
    (["break-even", "--curve", "c.json", "--target", "0.5"],
     {"curve": "c.json", "out": None, "target": 0.5},
     "--curve, --target"),
    (["bench", "--cmd", "cat"],
     {"cmd": "cat", "inputs": ["-"], "iters": 10000, "out": None, "warmup": 100},
     "--cmd"),
    (["synth", "--n", "3", "--out", "d"],
     {"dims": "64x64", "min_sep": 16.0, "n": 3, "out": "d", "seed": 0, "sigma": 2.0},
     "--n, --out"),
    (["report", "--in", "r.json"],
     {"format": "markdown", "infile": "r.json", "out": None},
     "--in"),
]


@pytest.mark.parametrize("argv, expected, required", PARSED_NAMESPACES, ids=[argv[0] for argv, _, _ in PARSED_NAMESPACES])
def test_subcommand_parses_to_its_namespace(argv, expected, required):
    parsed = vars(cli.build_parser().parse_args(argv))
    assert parsed.pop("handler") is getattr(cli, "_cmd_" + argv[0].replace("-", "_"))
    assert parsed == {"subcommand": argv[0], **expected}
    with pytest.raises(cli._UsageError) as info:
        cli.build_parser().parse_args(argv[:1])
    assert str(info.value) == f"ircount-eval {argv[0]}: the following arguments are required: {required}"


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
    assert pts.records[0].points[:, 0].tolist() == [0.25, 0.5]
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


def test_split_rejects_one_file_for_both_outputs(tmp_path, capsys):
    src = write_counts_manifest(tmp_path / "src.json", "src", list(range(10)))
    out = tmp_path / "x.json"
    (tmp_path / "sub").mkdir()
    same = tmp_path / "sub" / ".." / "x.json"  # another spelling of out
    argv = ["split", "--manifest", str(src), "--train-count", "5", "--out-train", str(out), "--out-test", str(same)]
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: --out-train and --out-test name the same file: {str(out)!r}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["split", "--manifest", "{counts}", "--train-count", "4", "--out-train", "{out}/train.json",
         "--out-test", "{out}/test.json"],
        ["ablate", "--manifest", "{counts}", "--fractions", "0.25,0.5,1", "--out-dir", "{out}"],
        ["locate-cam", "--map", "{map}", "--count", "3"],
        ["synth", "--n", "3", "--dims", "48x48", "--out", "{out}"],
    ],
    ids=["split", "ablate", "locate-cam", "synth"],
)
def test_randomized_commands_take_their_seed_from_the_option_alone(tmp_path, capsys, monkeypatch, argv):
    paths = {"counts": write_counts_manifest(tmp_path / "counts.json", "counts", list(range(8))),
             "map": tmp_path / "blob.cam", "out": tmp_path / "out"}
    values = np.zeros((16, 16))
    values[4:10, 4:10] = 255.0  # one component and three people: seeded samples inside it
    camloc.write_activation_map(Grid(16, 16, values.ravel(), camloc.CAM_RANGE), paths["map"])

    def outputs(env, extra=()):
        if env is None:
            monkeypatch.delenv("IRCOUNT_SEED", raising=False)
        else:
            monkeypatch.setenv("IRCOUNT_SEED", env)
        shutil.rmtree(paths["out"], ignore_errors=True)
        paths["out"].mkdir()
        assert run([arg.format(**paths) for arg in argv] + list(extra)) == 0
        report = json.loads(capsys.readouterr().out)
        files = {p.name: p.read_bytes() for p in sorted(paths["out"].iterdir())}
        return report, files

    unset = outputs(None)
    assert unset[0]["seed"] == 0
    assert outputs("77") == unset
    assert outputs("abc") == unset
    assert outputs(None, ["--seed", "77"]) != unset  # the seed does reach these outputs


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


def test_tune_threshold_rejects_one_file_for_curve_and_svg(tmp_path, capsys):
    gt = Dataset("gt", (ImageRecord("a", 64, 64, count=CountLabel(1)),))
    pred = Dataset("pred", (ImageRecord("a", 64, 64, boxes=(BoundingBox(0.5, 0.5, 0.1, 0.1, 0.5),)),))
    save_manifest(gt, tmp_path / "gt.json")
    save_manifest(pred, tmp_path / "pred.json")
    out = tmp_path / "c.json"
    argv = ["tune-threshold", "--gt", str(tmp_path / "gt.json"), "--pred", str(tmp_path / "pred.json"),
            "--out", str(out), "--svg", str(out)]
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: --out and --svg name the same file: {str(out)!r}\n"
    assert not out.exists()


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


def test_tune_threshold_rejects_grid_step_finer_than_the_bound(tmp_path, capsys):
    gt = write_counts_manifest(tmp_path / "gt.json", "gt", [1])
    argv = ["tune-threshold", "--gt", str(gt), "--pred", str(gt), "--grid-step", "1e-9", "--out", str(tmp_path / "c.json")]
    assert run(argv) == 1
    assert capsys.readouterr().err == "error: grid step 1e-09 gives more than 1000000 steps\n"
    assert not (tmp_path / "c.json").exists()



def tune_threshold_outputs(tmp_path, seed, images, grid_step):
    """Seeded count labels and scored detections (hits, near duplicates for
    NMS and low-scoring extras); returns the bytes of curve.json and the SVG."""
    rng = random.Random(seed)
    gt_records, pred_records = [], []
    for i in range(images):
        count = rng.randint(0, 6)
        boxes = []
        for _ in range(count + rng.randint(-1, 1)):
            cx, cy = rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)
            boxes.append(BoundingBox(cx, cy, 0.1, 0.1, round(rng.uniform(0.3, 1.0), 3)))
            if rng.random() < 0.2:
                boxes.append(BoundingBox(min(cx + 0.005, 1.0), cy, 0.1, 0.1, round(rng.uniform(0.1, 0.6), 3)))
        boxes += [BoundingBox(rng.random(), rng.random(), 0.05, 0.05, round(rng.uniform(0.0, 0.4), 3))
                  for _ in range(rng.randint(0, 2))]
        gt_records.append(ImageRecord(f"img{i}", 64, 64, count=CountLabel(count)))
        pred_records.append(ImageRecord(f"img{i}", 64, 64, boxes=tuple(boxes)))
    save_manifest(Dataset("gt", tuple(gt_records)), tmp_path / "gt.json")
    save_manifest(Dataset("pred", tuple(pred_records)), tmp_path / "pred.json")
    argv = ["tune-threshold", "--gt", str(tmp_path / "gt.json"), "--pred", str(tmp_path / "pred.json"),
            "--grid-step", grid_step, "--out", str(tmp_path / "curve.json"), "--svg", str(tmp_path / "curve.svg")]
    assert run(argv) == 0
    return (tmp_path / "curve.json").read_bytes(), (tmp_path / "curve.svg").read_bytes()


# (seed, images, --grid-step, sha256 of curve.json, sha256 of the SVG), taken
# when the curve still carried its best point as two stored fields.
PINNED_TUNE_THRESHOLD = [
    (1, 40, "0.01", "4f22b8c1b11bb43d6650189c870f9126ff7bda0bc0727c238d48f9e0ac50210f",
     "89106ae459e508f7f46abd868992e42f8258f3583a3bdfbbd57d79fee40a609b"),
    (2, 200, "0.001", "be1e17b21308099b84d7a18ce10927d60f15cc04d8612cda0935c8a62cefc2a9",
     "2043459d7891cba9eccb6b2440f3fdef16a325f7ca4ff55664d9e040ab4915b6"),
]


@pytest.mark.parametrize("seed,images,grid_step,curve_digest,svg_digest", PINNED_TUNE_THRESHOLD)
def test_tune_threshold_output_is_pinned(tmp_path, capsys, seed, images, grid_step, curve_digest, svg_digest):
    curve, svg = tune_threshold_outputs(tmp_path, seed, images, grid_step)
    assert hashlib.sha256(curve).hexdigest() == curve_digest
    assert hashlib.sha256(svg).hexdigest() == svg_digest


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


@pytest.mark.parametrize("scale", ["0.7", "1.1", "1.4", "5.5"])
def test_locate_cam_reads_a_map_whose_peak_is_its_scale(tmp_path, capsys, scale):
    # Rescaled to 0-255 on load, each of these peaks rounded above 255 and the map was rejected.
    values = np.zeros((8, 8))
    values[2, 5], values[6, 1] = float(scale), float(scale) / 10  # the second is below 27/255 of the peak
    write_grid(tmp_path / "m.cam", "CAM", values)
    assert run(["locate-cam", "--map", str(tmp_path / "m.cam"), "--count", "1", "--map-scale", scale]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["branch"] == "exact"
    assert payload["points"] == [[(5 + 0.5) / 8, (2 + 0.5) / 8]]


@pytest.mark.parametrize("k", [-3, 1, 4])
def test_locate_cam_threshold_keeps_its_meaning_on_a_scaled_map(tmp_path, capsys, k):
    # 27 is the default threshold and stays background, so the two 28s are two people, not one
    # bridged blob. Scaling by 2**k is exact, so the scaled map must give the same bytes.
    values = np.zeros((6, 6))
    values[1, 1:4] = (28.0, 27.0, 28.0)
    values[4, 2], values[4, 4] = 26.0, 255.0
    outputs = []
    for name, factor, scale in (("ref", 1.0, "255"), ("scaled", 2.0**k, repr(255.0 * 2.0**k))):
        write_grid(tmp_path / f"{name}.cam", "CAM", values * factor)
        argv = ["locate-cam", "--map", str(tmp_path / f"{name}.cam"), "--count", "3", "--map-scale", scale]
        assert run(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert json.loads(outputs[0])["branch"] == "exact"
    assert outputs[1] == outputs[0]


@pytest.mark.parametrize("threshold, branch", [("1e308", "empty-mask"), ("-1e308", "exact")])
def test_locate_cam_threshold_past_the_map_range_keeps_its_cut(tmp_path, capsys, threshold, branch):
    # Moved onto a 1000-peak map, these thresholds overflow to +-inf unless held to the map's range.
    write_grid(tmp_path / "m.cam", "CAM", np.array([[700.0, 100.0]]))
    argv = ["locate-cam", "--map", str(tmp_path / "m.cam"), "--count", "1", "--map-scale", "1000"]
    assert run([*argv, f"--threshold={threshold}"]) == 0
    assert json.loads(capsys.readouterr().out)["branch"] == branch


@pytest.mark.parametrize("scale", ["inf", "nan"])
def test_locate_cam_rejects_non_finite_map_scale(tmp_path, capsys, scale):
    # Unchecked, inf scales every value to 0 and answers 'empty-mask', and
    # nan turns every value into nan and blames the map file.
    camloc.write_activation_map(Grid(8, 8, np.full((8, 8), 200.0), camloc.CAM_RANGE), tmp_path / "m.cam")
    argv = ["locate-cam", "--map", str(tmp_path / "m.cam"), "--count", "1", "--map-scale", scale]
    assert run([*argv, "--out", str(tmp_path / "p.json")]) == 1
    err = capsys.readouterr().err
    assert "--map-scale" in err and scale in err and "m.cam" not in err
    assert not (tmp_path / "p.json").exists()


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


def test_ablate_rejects_fractions_that_share_a_file_name(tmp_path, capsys):
    # Both format as subset_0.123456.json; the second would overwrite the first.
    src = write_counts_manifest(tmp_path / "src.json", "src", list(range(12)))
    out_dir = tmp_path / "subsets"
    argv = ["ablate", "--manifest", str(src), "--fractions", "0.1234561,0.1234562,1", "--out-dir", str(out_dir)]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert "0.1234561" in captured.err and "0.1234562" in captured.err
    assert captured.out == "" and not out_dir.exists()


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
        ("0.5,0.2", "ascend"),
        ("1.5", "ascend"),
        (",", "non-empty"),
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
        {"accuracy": float("nan"), "mse": 0.1, "mae": 0.1, "n": 2},
        {"accuracy": 1.5, "mse": 0.1, "mae": 0.1, "n": 2},
        {"accuracy": 0.5, "mse": -1, "mae": 0.1, "n": 2},
        {"accuracy": 0.5, "mse": float("inf"), "mae": 0.1, "n": 2},
        {"accuracy": 0.5, "mse": 0.1, "mae": 1e400, "n": 2},
        {"accuracy": 0.5, "mse": 0.1, "mae": float("nan"), "n": 2},
        {"accuracy": 0.5, "mse": 0.1, "mae": 0.1, "n": "zz"},
        {"accuracy": 0.5, "mse": 0.1, "mae": 0.1, "n": 0},
        {"accuracy": 0.5, "mse": 0.1, "mae": 0.1, "n": 2.0},
        {"accuracy": 0.5, "mse": 0.1, "mae": 0.1, "n": True},
        {"accuracy": 0.5, "mse": 0.1, "mae": 0.1, "n": 2, "per_class": {"1": {"accuracy": 7, "occurrences": 1}}},
        {"accuracy": 0.5, "mse": 0.1, "mae": 0.1, "n": 2, "per_class": {"1": {"accuracy": 1, "occurrences": "q"}}},
        {"accuracy": 0.5, "mse": 0.1, "mae": 0.1, "n": 2, "per_class": {"1": {"accuracy": 1, "occurrences": -1}}},
        {"accuracy": 0.5, "mse": 0.1, "mae": 0.1, "n": 2, "per_class": {"-1": {"accuracy": 1, "occurrences": 1}}},
        {"accuracy": 0.5, "mse": 0.1, "mae": 0.1, "n": 2, "per_class": {"1": {"accuracy": False, "occurrences": 1}}},
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



@pytest.mark.parametrize(
    "text",
    [
        '{"fractions": [true], "accuracies": [true]}',
        '{"fractions": [0.5, 1.0], "accuracies": [0.5, true]}',
        '{"fractions": [0.5, NaN], "accuracies": [0.5, 0.6]}',
        '{"fractions": [NaN, 0.5], "accuracies": [0.5, 0.6]}',
        '{"fractions": [0.5, 1.0], "accuracies": [0.5, NaN]}',
        '{"fractions": [0.5, 1.0], "accuracies": [0.5, 0.6], "label": 3}',
        '{"fractions": [0.5, 1.0], "accuracies": [0.5, 0.6], "label": null}',
    ],
)
def test_break_even_rejects_bad_curve_naming_the_file(tmp_path, capsys, text):
    path = tmp_path / "curve.json"
    path.write_text(text)
    assert run(["break-even", "--curve", str(path), "--target", "0.5"]) == 1
    captured = capsys.readouterr()
    assert str(path) in captured.err
    assert captured.out == ""


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


def sigterm_bench_cli(pid_file, after_eof, gaps):
    """Run a subprocess CLI ``bench`` against a Python child that publishes
    its pid, then reads stdin to EOF without answering (so bench blocks on
    its reply) and runs ``after_eof``. Once the pid file appears, send
    SIGTERM to the CLI's pid alone, once more after each gap in ``gaps``.
    Returns the CLI's exit code."""
    child = ("import os, sys, time; from pathlib import Path; tmp = Path(sys.argv[1] + '.tmp'); "
             f"tmp.write_text(str(os.getpid())); tmp.replace(sys.argv[1]); sys.stdin.read(); {after_eof}")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["bench", "--cmd", shlex.join([sys.executable, "-c", child, str(pid_file)]), "--warmup", "0", "--iters", "1"]
    proc = subprocess.Popen([sys.executable, "-m", "ircount.cli", *argv], env=env, stdout=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 30
        while not pid_file.exists() and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
        assert pid_file.exists()
        proc.send_signal(signal.SIGTERM)
        for gap in gaps:
            time.sleep(gap)
            proc.send_signal(signal.SIGTERM)
        return proc.wait(timeout=5)
    finally:
        proc.kill()
        proc.wait()


def test_sigterm_ends_the_cli_with_143_and_reaps_the_predictor(tmp_path):
    pid_file = tmp_path / "child.pid"
    assert sigterm_bench_cli(pid_file, "pass", []) == 143
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)


def test_second_sigterm_while_close_waits_kills_and_reaps_the_predictor(tmp_path):
    # The child outlives EOF, so close() is still waiting when the second SIGTERM arrives.
    pid_file = tmp_path / "child.pid"
    start = time.monotonic()
    assert sigterm_bench_cli(pid_file, "time.sleep(60)", [0.5]) == 143
    assert time.monotonic() - start < harness.CLOSE_WAIT_S
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)


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


@pytest.mark.parametrize("dims", ["64X64", "064x064", " 64x64"])
def test_synth_names_its_manifest_after_the_parsed_dims(tmp_path, dims):
    for name, text in (("ref", "64x64"), ("alt", dims)):
        assert run(["synth", "--n", "2", "--dims", text, "--seed", "1", "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "alt" / "scene.json").read_bytes() == (tmp_path / "ref" / "scene.json").read_bytes()


@pytest.mark.parametrize(
    "flag, value, name",
    [
        ("--sigma", "inf", "blob_sigma"),  # unchecked, math.ceil would raise OverflowError and exit 2
        ("--sigma", "nan", "blob_sigma"),
        ("--min-sep", "nan", "min_sep"),
        ("--min-sep", "inf", "min_sep"),
    ],
)
def test_synth_rejects_non_finite_flag(tmp_path, capsys, flag, value, name):
    argv = ["synth", "--n", "2", "--dims", "32x32", flag, value, "--out", str(tmp_path / "scene")]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert f"{name} must be positive and finite, got {value}" in err
    assert not (tmp_path / "scene").exists()


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_outputs_get_umask_mode(tmp_path, capsys, umask, mode):
    old = os.umask(umask)
    try:
        assert run(["synth", "--n", "2", "--dims", "32x32", "--seed", "1", "--out", str(tmp_path)]) == 0
    finally:
        os.umask(old)
    for name in ("scene.json", "map.cam"):
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == mode


@pytest.mark.parametrize(
    "command, bad",
    [
        ("split", "missing/a.json"),  # the target's directory does not exist
        ("split", "file/a.json"),  # the target's directory is a file
        ("eval-count", "dir"),  # the target is a directory
        ("ablate", "file"),
        ("synth", "file"),
    ],
)
def test_output_path_error_exits_1_naming_the_given_path(tmp_path, capsys, command, bad):
    manifest = str(write_counts_manifest(tmp_path / "m.json", "m", [1, 2, 3]))
    (tmp_path / "file").write_text("x")
    (tmp_path / "dir").mkdir()
    out = str(tmp_path / bad)
    argv = {
        "split": ["split", "--manifest", manifest, "--train-count", "1", "--out-train", out,
                  "--out-test", str(tmp_path / "test.json")],
        "eval-count": ["eval-count", "--gt", manifest, "--pred", manifest, "--out", out],
        "ablate": ["ablate", "--manifest", manifest, "--fractions", "0.5,1.0", "--out-dir", out],
        "synth": ["synth", "--n", "1", "--dims", "16x16", "--out", out],
    }[command]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and out in err and ".tmp" not in err
    assert list(tmp_path.rglob("*.tmp")) == []


def test_write_text_atomic_failed_replace_keeps_the_target(tmp_path, monkeypatch):
    target = tmp_path / "out.json"
    target.write_text("old", encoding="utf-8")

    def fail(src, dst):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), src)

    monkeypatch.setattr(_fsutil.os, "replace", fail)
    with pytest.raises(PermissionError) as info:
        _fsutil.write_text_atomic(target, "new")
    assert info.value.filename == str(target) and ".tmp" not in str(info.value)
    assert target.read_text(encoding="utf-8") == "old"
    assert list(tmp_path.glob("*.tmp")) == []


def test_write_text_atomic_leaves_the_umask_alone(tmp_path, monkeypatch):
    def fail(mask):
        raise AssertionError("os.umask called")

    old = os.umask(0o027)
    try:
        with monkeypatch.context() as patch:
            patch.setattr(_fsutil.os, "umask", fail)
            _fsutil.write_text_atomic(tmp_path / "out.txt", "new")
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(tmp_path / "out.txt").st_mode) == 0o640
    assert (tmp_path / "out.txt").read_text(encoding="utf-8") == "new"


def test_write_text_atomic_keeps_a_temp_name_it_did_not_create(tmp_path, monkeypatch):
    monkeypatch.setattr(_fsutil.os, "urandom", lambda n: b"\0" * n)
    taken = tmp_path / f"tmp{'00' * 8}.tmp"
    taken.write_text("someone else's", encoding="utf-8")
    with pytest.raises(FileExistsError) as info:
        _fsutil.write_text_atomic(tmp_path / "out.json", "new")
    assert info.value.filename == str(tmp_path / "out.json")
    assert taken.read_text(encoding="utf-8") == "someone else's"
    assert not (tmp_path / "out.json").exists()


def test_write_text_atomic_reraises_other_errors_after_removing_its_temp_file(tmp_path):
    target = tmp_path / "out.json"
    target.write_text("old", encoding="utf-8")
    with pytest.raises(TypeError, match="must be str, not bytes"):
        _fsutil.write_text_atomic(target, b"new")
    assert target.read_text(encoding="utf-8") == "old"
    assert list(tmp_path.glob("*.tmp")) == []


def _slice_edges_text():
    """A text longer than two slices whose characters on either side of each
    slice edge take 3 bytes in UTF-8; the first also spans byte 2**20."""
    size = _fsutil._SLICE
    chars = ["a"] * (2 * size + 3)
    for i in (size - 1, size, 2 * size - 1, 2 * size):
        chars[i] = "\u20ac"
    return "".join(chars)


@pytest.mark.parametrize("make", [lambda: "", lambda: "a" * _fsutil._SLICE, _slice_edges_text],
                         ids=["empty", "one-slice", "slice-edges"])
def test_write_text_atomic_writes_the_utf8_bytes_of_its_text(tmp_path, make):
    text = make()
    _fsutil.write_text_atomic(tmp_path / "out.txt", text)
    assert (tmp_path / "out.txt").read_bytes() == text.encode("utf-8")


def test_write_text_atomic_unencodable_second_slice_keeps_the_target(tmp_path, monkeypatch):
    target = tmp_path / "out.json"
    target.write_text("old", encoding="utf-8")
    sizes, unlink = [], os.unlink

    def spy(name):
        sizes.append(os.path.getsize(name))
        unlink(name)

    monkeypatch.setattr(_fsutil.os, "unlink", spy)
    with pytest.raises(UnicodeEncodeError):
        _fsutil.write_text_atomic(target, "a" * _fsutil._SLICE + "\ud800")
    assert sizes == [_fsutil._SLICE]  # the first slice reached the temp file before the error
    assert target.read_text(encoding="utf-8") == "old"
    assert list(tmp_path.glob("tmp*.tmp")) == []


def test_write_text_atomic_holds_one_slice_of_encoded_text(tmp_path):
    text = "x" * (4 * 2**20)
    tracemalloc.start()
    try:
        _fsutil.write_text_atomic(tmp_path / "big.txt", text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2**20  # a slice and its bytes; the whole encoding would be 4 MiB
    assert (tmp_path / "big.txt").stat().st_size == len(text)


@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize("argv", [["locate-cam", "--map", "{grid}", "--count", "1"], ["winsorize", "{grid}", "{out}"]],
                         ids=["locate-cam", "winsorize"])
def test_cli_grid_that_cannot_be_read_exits_1_naming_it(tmp_path, capsys, argv, kind):
    grid = tmp_path / "grid"
    if kind == "directory":
        grid.mkdir()
    assert run([arg.format(grid=grid, out=tmp_path / "out.frame") for arg in argv]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot read {grid}: ")
    assert not (tmp_path / "out.frame").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["locate-cam", "--map", "{ok}", "--count", "1", "--threshold", "nan"],
         "threshold must be finite, got nan"),
        (["locate-cam", "--map", "{ok}", "--count", "0", "--threshold", "nan", "--out", "{out}"],
         "threshold must be finite, got nan"),
        (["synth", "--n", "3000", "--dims", "640x512", "--out", "{out}"],
         "could not place 3000 centers >= 16.0 px apart in 640 x 512: at most 1670 fit"),
        (["eval-locate", "--gt", "{counts}", "--pred", "{counts}"],
         "{counts}: record 'r0' carries no localizable tier (points or boxes)"),
        (["synth", "--n", "1", "--dims", "10", "--out", "{out}"], "dims must look like 64x64, got '10'"),
        (["ablate", "--manifest", "{counts}", "--fractions", "a:b:c", "--out-dir", "{out}"],
         "fractions must be start:stop:step or a comma list, got 'a:b:c'"),
        (["ablate", "--manifest", "{counts}", "--fractions", "0.5,x", "--out-dir", "{out}"],
         "fractions must be start:stop:step or a comma list, got '0.5,x'"),
        (["locate-cam", "--map", "{no_dims}", "--count", "1"], "{no_dims}: missing dimensions line"),
        (["locate-cam", "--map", "{bad_dims}", "--count", "1"], "{bad_dims}: non-integer dimensions '4 x'"),
        (["locate-cam", "--map", "{scaled}", "--count", "1", "--map-scale", "0.7"],
         "{scaled}: grid values must lie in [0, 0.7]"),
        (["eval-count", "--gt", "{a}", "--pred", "{b}"],
         "{a}, {b}: manifests do not align by record id (first differences: ['a', 'b'])"),
        (["eval-locate", "--gt", "{a}", "--pred", "{b}"],
         "{a}, {b}: manifests do not align by record id (first differences: ['a', 'b'])"),
        (["tune-threshold", "--gt", "{a}", "--pred", "{b}", "--out", "{out}"],
         "{a}, {b}: manifests do not align by record id (first differences: ['a', 'b'])"),
        (["tune-threshold", "--gt", "{a}", "--pred", "{a_pred}", "--out", "{out}"],
         "{a}, {a_pred}: prediction record 'a' carries no boxes tier"),
        (["tune-threshold", "--gt", "{a}", "--pred", "{a_pred}", "--nms", "2", "--out", "{out}"],
         "--nms must be in [0, 1], got 2.0"),
        (["eval-count", "--gt", "{empty}", "--pred", "{empty}"],
         "{empty}, {empty}: count_metrics requires at least one pair"),
        (["eval-locate", "--gt", "{empty}", "--pred", "{empty}"],
         "{empty}, {empty}: maed requires at least one image"),
        (["ablate", "--manifest", "{empty}", "--out-dir", "{out}"], "{empty}: cannot ablate an empty dataset"),
        (["split", "--manifest", "{counts}", "--train-count", "3", "--out-train", "{out}", "--out-test", "{out}-test"],
         "{counts}: train_count 3 out of range [0, 2]"),
        (["split", "--manifest", "{counts}", "--train-count", "-1", "--out-train", "{out}", "--out-test", "{out}"],
         "--train-count must be >= 0, got -1"),
        (["synth", "--n", "0", "--dims=-5x10", "--out", "{out}"], "width and height must be >= 1, got -5 x 10"),
        (["convert", "--in", "{counts}", "--to", "count", "--out", "{out}", "--max-count", "-1"],
         "max_count must be >= 0, got -1"),
        # Options are checked before the inputs (missing here) are read and before a predictor starts.
        (["ablate", "--manifest", "{missing}", "--fractions", "0.5,0.2", "--out-dir", "{out}"],
         "fractions must be non-empty and ascend within (0, 1], got '0.5,0.2'"),
        (["eval-locate", "--gt", "{missing}", "--pred", "{missing}", "--penalty", "-1"],
         "penalty must be positive and finite, got -1.0"),
        (["tune-threshold", "--gt", "{missing}", "--pred", "{missing}", "--grid-step", "0.3", "--out", "{out}"],
         "grid step must divide 1, got 0.3"),
        (["bench", "--cmd", "{missing}", "--iters", "0", "--out", "{out}"], "iters must be >= 1, got 0"),
        (["ablate", "--manifest", "{missing}", "--fractions", "0.1234561,0.1234562,1", "--out-dir", "{out}"],
         "--fractions 0.1234561 and 0.1234562 would both write subset_0.123456.json"),
        (["convert", "--in", "{missing}", "--to", "count", "--out", "{out}", "--max-count", "-1"],
         "max_count must be >= 0, got -1"),
        (["winsorize", "{missing}", "{out}", "--lo", "90", "--hi", "10"], "lo percentile must be in [0, 50), got 90.0"),
        (["winsorize", "{missing}", "{out}", "--hi", "10"], "hi percentile must be in (50, 100], got 10.0"),
        (["locate-cam", "--map", "{missing}", "--count", "-1", "--out", "{out}"], "num_instances must be >= 0, got -1"),
        (["locate-cam", "--map", "{missing}", "--count", "1", "--threshold", "nan", "--out", "{out}"],
         "threshold must be finite, got nan"),
        (["break-even", "--curve", "{missing}", "--target", "2", "--out", "{out}"],
         "target accuracy must be in [0, 1], got 2.0"),
    ],
    ids=["threshold-nan", "threshold-nan-count-0", "synth-too-many", "count-only-locate", "dims",
         "fractions", "fractions-list", "no-dims-line", "bad-dims", "map-scale-range", "count-ids-differ", "locate-ids-differ",
         "tune-ids-differ", "tune-pred-without-boxes", "tune-nms-out-of-range", "count-empty", "locate-empty",
         "ablate-empty", "split-too-many", "split-negative", "synth-dims-below-one", "max-count-negative",
         "ablate-fractions-first", "locate-penalty-first", "tune-grid-step-first", "bench-iters-first",
         "ablate-fraction-names-first", "max-count-negative-first", "winsorize-lo-first", "winsorize-hi-first",
         "locate-count-first", "locate-threshold-first", "break-even-target-first"],
)
def test_cli_error_exits_1_with_its_message(tmp_path, capsys, argv, message):
    paths = {
        "missing": tmp_path / "missing.json",
        "ok": tmp_path / "ok.cam",
        "counts": write_counts_manifest(tmp_path / "counts.json", "counts", [1, 2]),
        "empty": write_counts_manifest(tmp_path / "empty.json", "empty", []),
        "no_dims": tmp_path / "no_dims.cam",
        "bad_dims": tmp_path / "bad_dims.cam",
        "scaled": tmp_path / "scaled.cam",
        "out": tmp_path / "out",
    }
    for name, rec_id in (("a", "a"), ("b", "b"), ("a_pred", "a")):
        paths[name] = tmp_path / f"{name}.json"
        save_manifest(Dataset(name, (ImageRecord(rec_id, 64, 64, count=CountLabel(1)),)), paths[name])
    camloc.write_activation_map(Grid(4, 4, np.zeros(16), camloc.CAM_RANGE), paths["ok"])
    paths["no_dims"].write_text("CAM v1\n")
    paths["bad_dims"].write_text("CAM v1\n4 x\n")
    write_grid(paths["scaled"], "CAM", np.array([[0.75, 0.1]]))
    assert run([arg.format(**paths) for arg in argv]) == 1
    assert capsys.readouterr().err == f"error: {message.format(**paths)}\n"
    assert not paths["out"].exists()


@pytest.mark.parametrize("cmd", ["", "   "])
def test_bench_cli_empty_command_is_usage_error(capsys, monkeypatch, cmd):
    started = []
    monkeypatch.setattr(harness.subprocess, "Popen", lambda *args, **kwargs: started.append(args))
    assert run(["bench", "--cmd", cmd, "--warmup", "0", "--iters", "1"]) == 1
    assert f"error: predictor command is empty: {cmd!r}" in capsys.readouterr().err
    assert started == []


@pytest.mark.parametrize("token", ["a\nb", "c\r", "\n"])
def test_bench_cli_rejects_an_input_token_with_a_line_break_before_starting(capsys, tmp_path, token):
    # The command does not exist: reporting the token and not ENOENT shows that no child was started.
    missing = str(tmp_path / "no-such-predictor")
    assert run(["bench", "--cmd", missing, "--warmup", "0", "--iters", "1", "--inputs", "x", token]) == 1
    err = capsys.readouterr().err
    assert err == f"error: --inputs token {token!r} holds a line break; each token is sent as one line\n"


def test_run_builds_its_parser_once(monkeypatch, capsys):
    built = []
    init = cli._Parser.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(cli._Parser, "__init__", spy)
    cli.build_parser.cache_clear()
    assert run(["eval-count"]) == 1  # a usage error, after parsing
    assert run(["--help"]) == 0
    assert built.count("ircount-eval") == 1


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



def test_report_cli_renders_per_class_rows(tmp_path, capsys):
    per_class = {"0": {"accuracy": 1.0, "occurrences": 2}, "3": {"accuracy": 0.25, "occurrences": 4}}
    rows = [
        {"model": "det-a", "accuracy": 0.5, "mse": 0.75, "mae": 0.5, "n": 6, "per_class": per_class},
        {"model": "cls-b", "accuracy": 1, "mse": 0, "mae": 0, "n": 6},
    ]
    (tmp_path / "results.json").write_text(json.dumps(rows))
    assert run(["report", "--in", str(tmp_path / "results.json"), "--format", "markdown"]) == 0
    assert capsys.readouterr().out == (
        "| Model | Acc↑ | MSE↓ | MAE↓ |\n"
        "|---|---|---|---|\n"
        "| det-a | 50.00 % | 0.750 | 0.500 |\n"
        "| cls-b | 100.00 % | 0.000 | 0.000 |\n"
        "\n"
        "det-a:\n"
        "| Count | Occurrences | Acc↑ |\n"
        "|---|---|---|\n"
        "| 0 | 2 | 100.00 % |\n"
        "| 3 | 4 | 25.00 % |\n"
    )
    assert run(["report", "--in", str(tmp_path / "results.json"), "--format", "csv"]) == 0
    assert capsys.readouterr().out == (
        "Model,Acc↑,MSE↓,MAE↓\n"
        "det-a,50.00 %,0.750,0.500\n"
        "cls-b,100.00 %,0.000,0.000\n"
        "\n"
        "det-a:\n"
        "Count,Occurrences,Acc↑\n"
        "0,2,100.00 %\n"
        "3,4,25.00 %\n"
    )


def test_report_cli_rejects_malformed(tmp_path, capsys):
    (tmp_path / "bad.json").write_text(json.dumps({"rows": [{"model": "x"}]}))
    assert run(["report", "--in", str(tmp_path / "bad.json")]) == 1
    assert "missing" in capsys.readouterr().err


def test_emit_plot_single_point_curve(tmp_path):
    curve = ThresholdCurve((0.5,), (0.8,))
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


def test_emit_plot_escapes_label(tmp_path):
    curve = FractionCurve((0.1, 1.0), (0.2, 0.6), label="A&B <x>")
    emit_plot(curve, tmp_path / "l.svg")
    title = ElementTree.parse(tmp_path / "l.svg").getroot().find("{http://www.w3.org/2000/svg}text")
    assert title.text == "A&B <x>"


def test_emit_plot_plain_label_bytes(tmp_path):
    # The digest of the file written before labels were escaped: a label
    # with nothing to escape keeps its bytes.
    emit_plot(FractionCurve((0.1, 0.5, 1.0), (0.2, 0.9, 0.6), label="data-hungry"), tmp_path / "p.svg")
    digest = hashlib.sha256((tmp_path / "p.svg").read_bytes()).hexdigest()
    assert digest == "14b2ae2a5eb7b71fe35d3d1a13910358df2cc91fd0bba0ab5f2b81c10e2891f9"


def write_locate_instance(tmp_path, seed, images, max_points, spread):
    """Seeded gt/pred point manifests: each gt point is found with probability
    0.9 at a jittered spot (clamped into [0, 1], so 0.0 and 1.0 occur), and
    up to a tenth of the gt size in extra predictions is added."""
    rng = random.Random(seed)
    gt_records, pred_records = [], []
    for i in range(images):
        n = rng.randint(0, max_points)
        gt = [(rng.random(), rng.random()) for _ in range(n)]
        pred = [
            (min(1.0, max(0.0, x + rng.gauss(0.0, spread))), min(1.0, max(0.0, y + rng.gauss(0.0, spread))))
            for x, y in gt
            if rng.random() < 0.9
        ]
        pred += [(rng.random(), rng.random()) for _ in range(rng.randint(0, n // 10 + 1))]
        rng.shuffle(pred)
        gt_records.append(ImageRecord(f"img{i}", 64, 64, points=tuple(corpus.PointAnnotation(x, y) for x, y in gt)))
        pred_records.append(ImageRecord(f"img{i}", 64, 64, points=tuple(corpus.PointAnnotation(x, y) for x, y in pred)))
    save_manifest(Dataset("gt", tuple(gt_records)), tmp_path / "gt.json")
    save_manifest(Dataset("pred", tuple(pred_records)), tmp_path / "pred.json")


def eval_locate_output(tmp_path, case, denominator, squared):
    seed, images, max_points, spread, penalty = case
    write_locate_instance(tmp_path, seed, images, max_points, spread)
    out = tmp_path / "maed.json"
    argv = ["eval-locate", "--gt", str(tmp_path / "gt.json"), "--pred", str(tmp_path / "pred.json"),
            "--penalty", repr(penalty), "--denominator", denominator, "--out", str(out)]
    if not squared:
        argv.append("--no-squared")
    assert run(argv) == 0
    return out.read_bytes()


# Digests of the eval-locate JSON written by the pure-Python assignment solver
# that the array solver replaced: ((seed, images, max points, jitter, penalty),
# denominator, squared, sha256 of the output file).
LOCATE_CASES = {
    "crowd": (1, 8, 120, 0.01, 1.0),
    "small": (2, 60, 14, 0.02, 1.0),
    "wide-jitter": (3, 6, 80, 0.05, 0.01),
}
PINNED_EVAL_LOCATE = [
    ("crowd", "max_card", True, "565d6287499e40eaadcb883dad25d4315922413bf15067a287ba69f0357bf496"),
    ("crowd", "max_card", False, "f3ded87e9b2fbf324c6cf766f0e3813394db7bb8722fcd25524bebc5db45ce5c"),
    ("crowd", "gt_card", True, "97544fb43e301deb949e2bdbb15503f2c50f3852912ae0426bbe9ff4089c288a"),
    ("crowd", "gt_card", False, "793aa918d5255dbd2c6b8f84077f9e2bf602913b43df19e6e5ed240970ce1c77"),
    ("small", "max_card", True, "127d21f8540401171344097c7116d6cc6ced500d423c15cd7cccf243999b09ae"),
    ("small", "max_card", False, "0ddac0bde94e9ae8e07e7e79d7f9872970d70eb4d84a4a87fcb5101b3d807f16"),
    ("small", "gt_card", True, "7b43813adc218c7094ef2320a016d4e477f808beb550bcae49f60fdeb53af9d1"),
    ("small", "gt_card", False, "3d8163efb2ee39d57a70f4fb763c9be544f637cebc9e4a9c42bb99ce30bb3568"),
    ("wide-jitter", "max_card", True, "178cc7d30ee25e48db019a00d8eee8ba3479bae903d4a591791563f0e0dedd09"),
    ("wide-jitter", "max_card", False, "971438948dbc2940e58adbdd1ae0cce6f21ac54e43289321724b59867e866424"),
    ("wide-jitter", "gt_card", True, "b4bcf01b00cd728757dc38e6189eef88a6be543c7a1c5b745f605efb313b7812"),
    ("wide-jitter", "gt_card", False, "b71bc03df4d3beaee743521b2caed43c3e7b3510cd8e79b665c6dec75f64309b"),
]


@pytest.mark.parametrize("case,denominator,squared,digest", PINNED_EVAL_LOCATE)
def test_eval_locate_output_is_pinned(tmp_path, case, denominator, squared, digest):
    output = eval_locate_output(tmp_path, LOCATE_CASES[case], denominator, squared)
    assert hashlib.sha256(output).hexdigest() == digest


@pytest.mark.parametrize("penalty", ["1e308", "inf"])
def test_eval_locate_rejects_non_finite_penalty(tmp_path, capsys, penalty):
    # Three unmatched points cost 3e308, which overflows to inf.
    gt = ImageRecord("a", 64, 64, points=tuple(corpus.PointAnnotation(0.1 * k, 0.5) for k in range(1, 4)))
    save_manifest(Dataset("gt", (gt,)), tmp_path / "gt.json")
    save_manifest(Dataset("pred", (ImageRecord("a", 64, 64, points=()),)), tmp_path / "pred.json")
    argv = ["eval-locate", "--gt", str(tmp_path / "gt.json"), "--pred", str(tmp_path / "pred.json"),
            "--penalty", penalty, "--out", str(tmp_path / "maed.json")]
    assert run(argv) == 1
    assert "penalty" in capsys.readouterr().err
    assert not (tmp_path / "maed.json").exists()


def write_box_manifest(path, name, rng, n_images, score=None, count=False):
    """A manifest of ``n_images`` records with random boxes, the points at
    their centers, and (with ``count``) the count, written as plain JSON."""
    records = []
    for i in range(n_images):
        boxes = [
            [rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8), rng.uniform(0.05, 0.3), rng.uniform(0.05, 0.3),
             rng.random() if score is None else score]
            for _ in range(rng.randint(0, 6))
        ]
        rec = {"id": f"img-{i}", "width": 64, "height": 48, "boxes": boxes}
        if count:
            rec.update(points=[[b[0], b[1], b[4]] for b in boxes], count=len(boxes))
        records.append(rec)
    path.write_text(json.dumps({"name": name, "records": records}), encoding="utf-8")
    return str(path)


def test_manifest_commands_build_no_box_or_point_objects(tmp_path, monkeypatch, capsys):
    # The CLI's manifest paths read the tier arrays: building one item per
    # box or point is the per-entry cost that load_manifest no longer pays.
    rng = random.Random(11)
    gt = write_box_manifest(tmp_path / "gt.json", "gt", rng, 12, score=1.0, count=True)
    pred = write_box_manifest(tmp_path / "pred.json", "pred", rng, 12)
    built = []
    for cls in (BoundingBox, PointAnnotation):
        original = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__", lambda self, original=original: (built.append(self), original(self)))
    out = str(tmp_path / "out")
    commands = [
        ["split", "--manifest", gt, "--train-count", "5", "--seed", "3", "--out-train", f"{out}-a.json", "--out-test", f"{out}-b.json"],
        ["ablate", "--manifest", gt, "--fractions", "0.5,1.0", "--seed", "3", "--out-dir", f"{out}-ablate"],
        ["convert", "--in", pred, "--to", "points", "--out", f"{out}-points.json"],
        ["convert", "--in", pred, "--to", "count", "--out", f"{out}-counts.json"],
        ["tune-threshold", "--gt", gt, "--pred", pred, "--grid-step", "0.01", "--out", f"{out}-curve.json"],
        ["eval-locate", "--gt", gt, "--pred", pred],
        ["eval-locate", "--gt", f"{out}-points.json", "--pred", pred],
        ["eval-count", "--gt", gt, "--pred", pred],
    ]
    for argv in commands:
        assert run(argv) == 0, (argv, capsys.readouterr().err)
    assert built == []
