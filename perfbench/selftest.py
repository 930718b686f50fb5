"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that
1. the output checker rejects a tampered stdout and a non-zero exit, and
   accepts the recorded outputs;
2. BENCHMARK.json names exactly the workloads and metrics the code reports;
3. two traced runs of every workload report every per-layer metric and
   agree exactly on the count metrics, that scalar field ops appear only on
   simulate-gf1024, and that bounds-dag30 builds at least 20,694 networks.

Part 3 runs each workload twice in one traced process at one worker, about
a minute in all.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from run import END_TO_END, OUT_DIR
from tracer import LAYER_METRICS
from workloads import DEFAULT_SEED, WORKLOADS, judge

HERE = Path(__file__).resolve().parent
EXACT_COUNTS = (
    "netmodel.network_builds",
    "galois.scalar_ops",
    "galois.words_drawn",
    "rlncsim.slots",
    "netmodel.topological_order_calls",
)
# Filled in by run.py from untraced invocations, not by the traced child.
RUN_LEVEL = ("rlncsim.parallel_efficiency", "bench.trace_overhead_frac")


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def checker() -> None:
    for wl in WORKLOADS.values():
        good = {"exit": 0, "stdout": wl.expected_stdout()}
        check(judge(wl, DEFAULT_SEED, good) == [], f"{wl.name}: recorded output accepted")
        check(judge(wl, DEFAULT_SEED, {**good, "exit": 1}) != [], f"{wl.name}: exit 1 rejected")
        digit = next(i for i, ch in enumerate(good["stdout"]) if ch in "123456789")
        tampered = good["stdout"][:digit] + "0" + good["stdout"][digit + 1:]
        check(judge(wl, DEFAULT_SEED, {**good, "stdout": tampered}) != [], f"{wl.name}: tampered stdout rejected")
        if wl.seeded:
            other = good["stdout"].replace(f"seed: {DEFAULT_SEED}\n", "seed: 9\n")
            check(judge(wl, 9, {**good, "stdout": other}) == [], f"{wl.name}: seed-independent checks accept")
            bad = other.replace(f"trials: {wl.trials}  failures:", f"trials: {wl.trials}  failures: 9")
            check(judge(wl, 9, {**good, "stdout": bad}) != [], f"{wl.name}: seed-independent checks reject")


def benchmark_json() -> None:
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    check(
        [(w["name"], w["why"]) for w in doc["workloads"]]
        == [(w.name, w.why) for w in WORKLOADS.values()],
        "BENCHMARK.json workloads",
    )
    check(
        [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(END_TO_END),
        "BENCHMARK.json end-to-end metrics",
    )
    check(
        [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
        == [m[:3] for m in LAYER_METRICS],
        "BENCHMARK.json per-layer metrics",
    )


def traced(name: str, out: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), name, str(DEFAULT_SEED), "1", "trace", str(out)],
        capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise SystemExit(f"selftest FAILED: {name}: traced run exits {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traces() -> None:
    names = {m[0] for m in LAYER_METRICS} - set(RUN_LEVEL)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        for wl in WORKLOADS.values():
            first, second = (traced(wl.name, Path(tmp) / f"{wl.name}-{i}.json") for i in (1, 2))
            check(judge(wl, DEFAULT_SEED, first) == [], f"{wl.name}: traced output is correct")
            check(set(first["layers"]) == names, f"{wl.name}: every per-layer metric reported")
            for key in EXACT_COUNTS:
                check(first["layers"][key] == second["layers"][key], f"{wl.name}: {key} repeats exactly")
            ops = first["layers"]["galois.scalar_ops"]
            check((ops > 0) == (wl.name == "simulate-gf1024"), f"{wl.name}: galois.scalar_ops = {ops}")
            if wl.name == "bounds-dag30":
                builds = first["layers"]["netmodel.network_builds"]
                check(builds >= 20694, f"bounds-dag30: {builds} network builds")


if __name__ == "__main__":
    checker()
    benchmark_json()
    traces()
    print("selftest passed")
