"""The four benchmark workloads and the checks on their output.

Each workload is one fixed `rlncfail` command line.  The network generator
seeds are part of the workload, because they fix the problem size; the
benchmark seed sets only the `simulate --seed` argument.  At DEFAULT_SEED
every workload's stdout must equal the bytes recorded in `expected/`; at any
other seed the seeded workloads are held to the seed-independent checks in
`check_stdout` and to identical output at one and two workers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
DEFAULT_SEED = 1
BENCH_WORKERS = 2  # every timed invocation passes --workers 2: nproc of the tuning host

# Exact failure probability of the butterfly at sink t1, rate 2, over GF(1024):
# the `bounds` thm1 value, which enumeration proves tight on the butterfly.
GF1024_EXACT = Fraction(5754479926790067199, 1180591620717411303424)
EXACT_ASSIGNMENTS = 4**12  # q^N for the butterfly at q = 4, N = 12 slots


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    gen: str
    field: int
    sink: str | None = None  # None: the network's only sink
    rate: int | None = None  # None: the generator's rate hint
    trials: int | None = None  # simulate only; the run's work in trials
    why: str = ""

    @property
    def seeded(self) -> bool:
        return self.command == "simulate"

    @property
    def work(self) -> tuple[int, str]:
        """(units of work per invocation, unit name) for the work rate."""
        if self.command == "simulate":
            return self.trials, "trials"
        if self.command == "exact":
            return EXACT_ASSIGNMENTS, "assignments"
        return 1, "reports"

    def argv(self, seed: int, workers: int = BENCH_WORKERS) -> list[str]:
        out = [self.command, "--gen", self.gen]
        if self.sink is not None:
            out += ["--sink", self.sink]
        if self.rate is not None:
            out += ["--rate", str(self.rate)]
        out += ["--field", str(self.field)]
        if self.seeded:
            out += ["--trials", str(self.trials), "--seed", str(seed)]
        return out + ["--workers", str(workers)]

    def expected_stdout(self) -> str:
        return (EXPECTED_DIR / f"{self.name}.txt").read_text(encoding="utf-8")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "bounds-dag30", "bounds", "random:internal=30,w=6,density=0.3,seed=2", 2,
            why="flowpaths R_t branch-and-bound: ~20.7k max-flows and residual Network "
                "rebuilds; no rlncsim or RNG work, so kernel and field changes should not move it",
        ),
        Workload(
            "exact-butterfly-q4", "exact", "butterfly", 4, sink="t1", rate=2,
            why="enumerates all 4^12 assignments of the paper's butterfly with the GF(4) "
                "table engine; rank-heavy, no RNG and no flowpaths work",
        ),
        Workload(
            "simulate-dag12", "simulate", "random:internal=12,w=4,density=0.5,seed=5", 2,
            trials=262144,
            why="Monte Carlo on N=85 slots in 16 blocks over the process pool; "
                "propagation-heavy, the only workload using the counter RNG in bulk",
        ),
        Workload(
            "simulate-gf1024", "simulate", "butterfly", 1024, sink="t1", rate=2,
            trials=2000,
            why="the only workload on the scalar field fallback (FieldSpec ops); "
                "a single block, so it bypasses the pool",
        ),
    )
}


# Independent cross-check: the exact enumeration must equal the bounds' thm1,
# which is tight on the butterfly.
THM1_CHECK = Workload("bounds-butterfly-q4", "bounds", "butterfly", 4, sink="t1", rate=2)
ALL = {**WORKLOADS, THM1_CHECK.name: THM1_CHECK}


def decimal_str(x: Fraction, digits: int = 10) -> str:
    """x to 10 significant digits, written apart from the CLI's own formatter
    so the check does not reuse the code it checks."""
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(x.numerator) / Decimal(x.denominator))


def parse_fraction(pattern: str, stdout: str) -> Fraction | None:
    m = re.search(pattern, stdout, re.MULTILINE)
    return Fraction(int(m.group(1)), int(m.group(2))) if m else None


def parse_interval(stdout: str) -> tuple[float, float] | None:
    m = re.search(r"^wilson99: \[(\S+), (\S+)\]$", stdout, re.MULTILINE)
    return (float(m.group(1)), float(m.group(2))) if m else None


def judge(wl: Workload, seed: int, res: dict) -> list[str]:
    """Problems with one invocation: a non-zero exit or a wrong stdout."""
    problems = [] if res.get("exit") == 0 else [f"exit code {res.get('exit')}"]
    return problems + check_stdout(wl, seed, res.get("stdout", ""))


def check_stdout(wl: Workload, seed: int, stdout: str) -> list[str]:
    """Problems with one invocation's stdout; empty when it is correct."""
    if not wl.seeded or seed == DEFAULT_SEED:
        if stdout != wl.expected_stdout():
            return [f"stdout differs from expected/{wl.name}.txt"]
        return []
    m = re.fullmatch(
        rf"network: {re.escape(wl.gen)}\n"
        rf"sink: {wl.sink or 't'}\n"
        rf"q: {wl.field}  w: \d+\n"
        rf"trials: {wl.trials}  failures: (\d+)  p_hat: (\S+)\n"
        rf"wilson99: \[(\S+), (\S+)\]\n"
        rf"seed: {seed}\n",
        stdout,
    )
    if not m:
        return ["stdout does not have the simulate report layout"]
    failures = int(m.group(1))
    lo, hi = float(m.group(3)), float(m.group(4))
    problems = []
    if not 0 <= failures <= wl.trials:
        problems.append(f"failures {failures} outside 0..{wl.trials}")
    elif m.group(2) != decimal_str(Fraction(failures, wl.trials)):
        problems.append(f"p_hat {m.group(2)} is not failures/trials")
    elif not 0.0 <= lo <= failures / wl.trials <= hi <= 1.0:
        problems.append(f"wilson99 [{lo}, {hi}] does not bracket p_hat")
    return problems
