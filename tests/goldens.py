"""The golden CLI runs: the one list of recorded stdout files a run must match.

A row is (argv without --workers, golden path from the repo root, worker
counts), and each worker count n is one run, argv + ("--workers", n), made
from the repo root.  `tests/test_cli.py` makes every run in-process and diffs
every file in `tests/golden/` and `perfbench/expected/` this way.  Run as a
script, this file prints one line per run, the golden path and then the
argv, for CI to feed the same runs through the console script:

    python tests/goldens.py | while read -r golden argv; do rlncfail $argv | diff - "$golden"; done
"""

from __future__ import annotations

import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

BUTTERFLY_T1 = ("--gen", "butterfly", "--sink", "t1", "--rate", "2")
DAG12 = ("--gen", "random:internal=12,w=4,density=0.5,seed=5")
PLAIT_DIRECT = ("--network", "tests/networks/plait-w3-r15-direct.net")  # named in the report as given


def _simulate(gen, q, trials, seed=1):
    return ("simulate", *gen, "--field", str(q), "--trials", str(trials), "--seed", str(seed))


ROWS = [
    (("bounds", "--gen", "butterfly", "--sink", "t1", "--field", "4"), "tests/golden/bounds-butterfly-t1-q4.txt", (1,)),
    (("bounds", "--gen", "butterfly", "--sink", "t1", "--field", "4", "--format", "json"),
     "tests/golden/bounds-butterfly-t1-q4.json", (1,)),
    (("bounds", "--gen", "random:internal=20,w=5,density=0.4,seed=2", "--field", "2"),
     "tests/golden/bounds-dag20-q2.txt", (1,)),
    (("bounds", "--gen", "random:internal=20,w=5,density=0.4,seed=2", "--field", "2", "--format", "json"),
     "tests/golden/bounds-dag20-q2.json", (1,)),
    # an R_t search that runs no max-flow
    (("bounds", "--gen", "random:internal=40,w=6,density=0.3,seed=1", "--field", "2"),
     "tests/golden/bounds-dag40-q2.txt", (1,)),
    # the search's 57 feasibility checks run a warm-started max-flow
    (("bounds", "--gen", "random:internal=25,w=6,density=0.3,seed=2", "--field", "2"),
     "tests/golden/bounds-dag25-q2.txt", (1,)),
    # R_t below the heuristic's count, proved in 10 steps
    (("bounds", "--gen", "random:internal=20,w=8,density=0.6,seed=1", "--field", "2"),
     "tests/golden/bounds-dag20w8-q2.txt", (1,)),
    # the direct channel leaves no node on every path, so no floor ends the
    # search, and it runs out of its 10^6 steps: the heuristic flag in the
    # text report, the JSON report and the sweep CSV
    (("bounds", *PLAIT_DIRECT, "--field", "2"), "tests/golden/bounds-plait-w3-r15-direct-q2.txt", (1,)),
    (("bounds", *PLAIT_DIRECT, "--field", "2", "--format", "json"),
     "tests/golden/bounds-plait-w3-r15-direct-q2.json", (1,)),
    (("sweep", *PLAIT_DIRECT, "--fields", "2", "--budget", "1"),
     "tests/golden/sweep-plait-w3-r15-direct-q2.csv", (1,)),
    # every internal node lies on every path: exact at that floor, no step
    (("bounds", "--gen", "plait:w=3,r=15", "--field", "2"), "tests/golden/bounds-plait-w3-r15-q2.txt", (1,)),
    (("exact", "--gen", "plait:w=3,r=2", "--field", "3"), "tests/golden/exact-plait-w3-r2-q3.txt", (1,)),
    (("exact", "--gen", "plait:w=3,r=2", "--field", "3", "--format", "json"),
     "tests/golden/exact-plait-w3-r2-q3.json", (1,)),
    # GF(3^2): the DP over an odd-characteristic extension field
    (("exact", *BUTTERFLY_T1, "--field", "9"), "tests/golden/exact-butterfly-t1-q9.txt", (1,)),
    # most nodes hold states of mixed in-column rank
    (("exact", "--gen", "random:internal=8,w=3,density=0.4,seed=7", "--field", "3"),
     "tests/golden/exact-random8-w3-q3.txt", (1,)),
    # the exact columns are blank at q = 3, where the DP passes the budget
    (("sweep", "--gen", "random:internal=5,w=2,density=0.5,seed=3", "--fields", "2,3", "--budget", "524288"),
     "tests/golden/sweep-random5-q2q3.csv", (1,)),
    # one path analysis serves all three fields; the budget leaves exact blank
    (("sweep", "--gen", "random:internal=25,w=6,density=0.3,seed=2", "--fields", "2,3,5", "--budget", "1"),
     "tests/golden/sweep-dag25-q235.csv", (1,)),
    (("sweep", *BUTTERFLY_T1, "--fields", "2,3,4", "--trials", "2000", "--seed", "1"),
     "tests/golden/sweep-butterfly-t1.csv", (1,)),
    # two fields' Monte Carlo in one process: workers forked once per field,
    # the estimates those of simulate-dag12-q3.txt and -q4.txt
    (("sweep", *DAG12, "--fields", "3,4", "--trials", "40000", "--seed", "1", "--budget", "1"),
     "tests/golden/sweep-dag12-q34.csv", (1, 2, 3)),
    (("simulate", "--gen", "butterfly", "--sink", "t1", "--field", "2", "--trials", "1000", "--seed", "3",
      "--format", "json"), "tests/golden/simulate-butterfly-t1-q2.json", (1,)),
    # an odd prime, and an extension field over three units: the engine's vadd/vneg path
    (_simulate(DAG12, 3, 40000), "tests/golden/simulate-dag12-q3.txt", (1, 2, 3)),
    (_simulate(DAG12, 9, 40000), "tests/golden/simulate-dag12-q9.txt", (1, 2, 3)),
    # dag40's 64 MiB budget splits 40,000 trials into five units of 8,154
    (_simulate(("--gen", "random:internal=40,w=6,density=0.3,seed=1"), 3, 40000),
     "tests/golden/simulate-dag40-q3.txt", (1, 2, 3)),
    # GF(2^2): a power of two above 2, drawn by the banded hash unpacked
    (_simulate(DAG12, 4, 40000), "tests/golden/simulate-dag12-q4.txt", (1, 2, 3)),
    # GF(5^4): an odd prime with m > 2
    (_simulate(BUTTERFLY_T1, 625, 40000), "tests/golden/simulate-butterfly-t1-q625.txt", (1, 2, 3)),
    # GF(2^8) and GF(2^16), whose smallest generators are not x: the tables'
    # generator search goes on past x
    (_simulate(BUTTERFLY_T1, 256, 2000), "tests/golden/simulate-butterfly-t1-q256.txt", (1, 2)),
    (_simulate(BUTTERFLY_T1, 65536, 2000), "tests/golden/simulate-butterfly-t1-q65536.txt", (1, 2)),
    # w = 10 puts the source's imaginary inputs d1..d10 where their string and
    # natural orders differ
    (_simulate(("--gen", "random:internal=6,w=10,density=0.6,seed=1"), 2, 20000, seed=3),
     "tests/golden/simulate-dag6-w10-q2.txt", (1, 2)),
    # GF(2) eight trials a byte, 1,001 of them: the last byte has seven padding bits
    (_simulate(BUTTERFLY_T1, 2, 1001), "tests/golden/simulate-butterfly-t1-q2-1001.txt", (1, 2)),
]

# the benchmark's workloads at its default seed, read from perfbench/workloads.py
_BENCH = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))
_BENCH_WORKERS = {"simulate-dag12": (1, 2, 3), "simulate-gf1024": (1, 2)}
ROWS += [
    (tuple(wl.argv(_BENCH["DEFAULT_SEED"])[:-2]),  # argv ends in --workers
     (_BENCH["EXPECTED_DIR"] / f"{name}.txt").relative_to(ROOT).as_posix(),
     _BENCH_WORKERS.get(name, (1,)))
    for name, wl in _BENCH["ALL"].items()
]

# (argv, golden path): one per row and worker count
RUNS = [(argv + ("--workers", str(n)), golden) for argv, golden, workers in ROWS for n in workers]


if __name__ == "__main__":
    for argv, golden in RUNS:
        print(golden, *argv)
