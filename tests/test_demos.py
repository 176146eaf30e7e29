"""The narrative demos run end to end (demo 04 is the `run_matrix` path,
which tests/test_experiment_cli.py covers)."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "demo",
    ["01_model_from_floorplan.py", "02_simulated_sensing.py", "03_selective_localization.py"],
)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / demo)],
        cwd=tmp_path, env=src_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
