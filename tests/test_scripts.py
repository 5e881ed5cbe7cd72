"""The scripts under scripts/, each run in a fresh interpreter as a user runs it."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_defect_bound_sweep_census():
    # |V| <= 3: the finder's verdict on every instance over the bound, the
    # triangle among the three Y witnesses, and every witness re-checked
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "defect_bound_sweep.py"),
         "--max-vertices", "3"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    summary = [line for line in proc.stdout.splitlines() if line[1:2] == ":"]
    assert summary == [
        "Y: 437 instances with gflow, 9 exceed the bound, "
        "3 of those still have a Y-NF gflow, 0 of those fail re-checking",
        "Z: 437 instances with gflow, 12 exceed the bound, "
        "0 of those still have a Z-NF gflow, 0 of those fail re-checking",
    ]
    assert '"edges": [[0, 1], [0, 2], [1, 2]]' in proc.stdout


def test_determinism_demo():
    # seed 0: the derived corrections make every branch agree, stripping
    # them does not, and the extracted map is an isometry to rounding
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "determinism_demo.py")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "corrected: deterministic=True strong=True" in lines
    assert any(line.startswith("stripped: deterministic=False") for line in lines)
    defect = [line for line in lines if line.startswith("isometry defect")]
    assert len(defect) == 1
    assert float(defect[0].rsplit("=", 1)[1]) < 1e-8
