"""Smoke test: every demo script runs to completion, quietly."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_found():
    assert [d.name for d in DEMOS] == [
        "night_charge_walkthrough.py", "profile_preparation.py",
        "ramp_analysis.py", "strategy_comparison.py"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, str(demo)], capture_output=True,
                         text=True, env=env, cwd=tmp_path, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    assert run.stdout
