"""Smoke runs of the experiment scripts on small arguments."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_mc_calibration():
    proc = run_script("mc_calibration.py", "--trials", "2000", "--seeds", "2")
    assert proc.returncode == 0, proc.stderr
    names = [line.split()[0] for line in proc.stdout.splitlines() if "contained=" in line]
    assert names == ["butterfly/t1", "plait(2,1)/t", "plait(1,2)/t"]
