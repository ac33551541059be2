"""The demo scripts under ``scripts/`` run to completion on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


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
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
