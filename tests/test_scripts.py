"""Smoke runs of the experiment scripts on small arguments."""

import csv
import io
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


def test_field_size_sweep():
    proc = run_script("field_size_sweep.py", "--fields", "2,3")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "network,q,exact,thm1,thm2,thm3,lower,exact_frac,thm1_frac"
    assert len(lines) == 1 + 4 * 2  # one row per (network, q)
    rows = {(r["network"], r["q"]): r for r in csv.DictReader(io.StringIO(proc.stdout))}
    for name in ("butterfly", "plait(2,1)", "plait(3,2)"):  # the exact DP fits: thm1 is tight
        for q in ("2", "3"):
            assert rows[name, q]["exact_frac"] == rows[name, q]["thm1_frac"] != ""
    assert rows["random(5,2,0.5,#3)", "2"]["exact_frac"] == "71837/131072"
    assert rows["random(5,2,0.5,#3)", "3"]["exact_frac"] == ""  # over the default budget


def test_mc_calibration():
    proc = run_script("mc_calibration.py", "--trials", "2000", "--seeds", "2")
    assert proc.returncode == 0, proc.stderr
    names = [line.split()[0] for line in proc.stdout.splitlines() if "contained=" in line]
    assert names == ["butterfly/t1", "plait(2,1)/t", "plait(1,2)/t"]
