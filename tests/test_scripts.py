"""Report scripts run from any working directory."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_root_unity_census_outside_repo(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "root_unity_census.py"),
                           "--p", "5"], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "=== p = 5" in proc.stdout
    assert "irreducible" in proc.stdout
