"""Report scripts run from any working directory."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_root_unity_census_outside_repo(tmp_path):
    out = run_script("root_unity_census.py", "--p", "5", cwd=tmp_path)
    assert "=== p = 5" in out
    assert "irreducible" in out
    assert "DISAGREE" not in out


def test_degenerate_lambda_sweep_outside_repo(tmp_path):
    out = run_script("degenerate_lambda_sweep.py", cwd=tmp_path)
    assert "lambda = q^1/2: dim 8, multiplicities [2, 2, 2, 2]" in out
    assert "parent commutant 2" in out


def test_split_family_report_outside_repo(tmp_path):
    out = run_script("split_family_report.py", "--max-twice", "3", cwd=tmp_path)
    assert "Ri_l[3/2,+]" in out
    assert "(1, 1): 1 0 0 0" in out
