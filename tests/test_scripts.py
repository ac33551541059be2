"""The demo scripts under ``scripts/`` run to completion on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(cwd, argv, **env):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path, **env},
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["run_synthetic_pipeline.py", "--images", "5", "--out-dir", "out"],
        ["run_fraction_ablation.py", "--train-size", "100", "--test-size", "40", "--out-dir", "out"],
        ["run_speed_bench.py", "--warmup", "1", "--iters", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_script_runs(tmp_path, argv):
    proc = run_script(tmp_path, argv)
    assert proc.returncode == 0, proc.stderr


def test_fraction_ablation_ignores_hash_seed(tmp_path):
    argv = ["run_fraction_ablation.py", "--train-size", "100", "--test-size", "40", "--out-dir", "out"]
    outs = []
    for hash_seed in ("1", "2"):
        (tmp_path / hash_seed).mkdir()
        proc = run_script(tmp_path / hash_seed, argv, PYTHONHASHSEED=hash_seed)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
