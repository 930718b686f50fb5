"""End-to-end and per-layer benchmark of the `rlncfail` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from its
`src/` directory, so nothing needs to be built or installed.

--trace 0 times fresh-process invocations of the workload (each sample pays
interpreter start-up and imports, as a CLI user does) at two workers until
--seconds have passed, plus SETUP_RUNS set-up-only processes, and reports
the end-to-end metrics as medians; times are rescaled to a reference machine
speed (see CAL_REF_S).  --trace 1 alternates untraced invocations at
two and one workers until --seconds have passed, then makes one traced
invocation at one worker, and reports the per-layer metrics.  Every
invocation's output is checked.  Human-readable lines come first; the last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.  A full record,
including the machine, goes to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS
from workloads import (
    DEFAULT_SEED,
    GF1024_EXACT,
    THM1_CHECK,
    WORKLOADS,
    Workload,
    judge,
    parse_fraction,
    parse_interval,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
RUN_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_RUNS = 10
# child.calibrate() on a quiet core of the 2-vCPU Intel Xeon host the
# benchmark was tuned on.  Other tenants of a shared host slow every process
# by up to half for tens of seconds at a time; dividing each call's wall time
# by the calibration timed in the same process next to it, and multiplying
# by this constant, removes much of that drift.  The constant only sets the
# scale.
CAL_REF_S = 0.105

END_TO_END = (
    ("norm_wall_s", "s"),
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


class Run:
    """One benchmark run: its deadline, how many child processes it made and
    the problems found in their results."""

    def __init__(self, wl: Workload, seed: int):
        self.wl = wl
        self.seed = seed
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.problems: list[str] = []

    def invoke(self, mode: str, workers: int, wl: Workload | None = None, trace_out=None) -> dict:
        """Run child.py in a fresh interpreter and session; kill the whole
        session if it outlives the run's deadline."""
        wl = wl or self.wl
        cmd = [sys.executable, str(HERE / "child.py"), wl.name, str(self.seed), str(workers), mode]
        if trace_out is not None:
            cmd.append(str(trace_out))
        self.attempted += 1
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return self._fail(f"{wl.name} {mode}: killed at the run deadline")
        try:
            res = json.loads(out.strip().splitlines()[-1])
        except (IndexError, ValueError):
            return self._fail(f"{wl.name} {mode}: exit {proc.returncode}, no result: {err.strip()[-400:]}")
        res["outer_s"] = time.perf_counter() - t0
        if mode == "setup":
            return res
        problems = judge(wl, self.seed, res)
        if problems:
            self._fail(f"{wl.name} {mode} --workers {workers}: " + "; ".join(problems))
            res["failed"] = True
        return res

    def _fail(self, problem: str) -> dict:
        self.problems.append(problem)
        return {"failed": True}

    def require(self, ok: bool, problem: str) -> None:
        """A check across invocations; its failure fails the later one."""
        if not ok:
            self.problems.append(problem)

    def cross_check(self, res: dict, workers_1: dict | None) -> dict:
        """Checks that need a second invocation.  Returns what they report."""
        notes = {}
        if "stdout" not in res:
            return notes
        if self.wl.seeded and workers_1 is not None:
            self.require(
                workers_1.get("stdout") == res["stdout"],
                f"{self.wl.name}: output differs between --workers 1 and --workers 2",
            )
        if self.wl.command == "exact":
            bounds = self.invoke("run", 1, wl=THM1_CHECK)
            thm1 = parse_fraction(r"^  thm1\s+(\d+)/(\d+) ", bounds.get("stdout", ""))
            exact = parse_fraction(r"^exact: (\d+)/(\d+) ", res["stdout"])
            self.require(thm1 is not None and thm1 == exact, f"exact {exact} differs from thm1 {thm1}")
            notes["exact_equals_thm1"] = thm1 == exact
        if self.wl.field == 1024 and self.wl.seeded:
            lo_hi = parse_interval(res["stdout"])
            # reported, not gated: a 99% interval misses 1% of the time
            notes["wilson99_contains_exact"] = bool(lo_hi) and lo_hi[0] <= float(GF1024_EXACT) <= lo_hi[1]
        return notes


def machine(samples: list[dict]) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = dirty = None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        status = subprocess.run(git + ["status", "--porcelain"], capture_output=True, text=True, timeout=30)
        if head.returncode == 0 and status.returncode == 0:
            commit, dirty = head.stdout.strip(), bool(status.stdout.strip())
    versions = next((s for s in samples if "python" in s), {})
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": versions.get("python"),
        "numpy": versions.get("numpy"),
        "commit": commit,
        "dirty": dirty,
    }


def norm_wall(sample: dict) -> float:
    """Wall time of the call at the reference machine speed."""
    return sample["wall_s"] * CAL_REF_S / sample["cal_s"]


def norm_setup(sample: dict) -> float:
    """Set-up time at the reference machine speed."""
    return sample["setup_s"] * CAL_REF_S / sample["setup_cal_s"]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0  # every invocation failed


def end_to_end(run: Run, seconds: int) -> tuple[dict, dict, list[dict]]:
    wl = run.wl
    setups = [run.invoke("setup", 0) for _ in range(SETUP_RUNS)]
    samples: list[dict] = []
    start = time.monotonic()
    while True:
        samples.append(run.invoke("run", 2))
        if samples[-1].get("failed"):
            break
        typical = _median([s.get("outer_s", 0.0) for s in samples])
        now = time.monotonic()
        if now - start + typical > seconds or now + 3 * typical > run.deadline:
            break
    workers_1 = run.invoke("run", 1) if wl.seeded else None
    notes = run.cross_check(samples[0], workers_1)
    run.require(
        len({s.get("stdout") for s in samples}) == 1,
        f"{wl.name}: output differs between repeated invocations",
    )
    timed = [s for s in samples if "wall_s" in s]
    wall = _median([norm_wall(s) for s in timed])
    work, unit = wl.work
    metrics = {
        "norm_wall_s": wall,
        "setup_s": _median([norm_setup(s) for s in setups + samples if "setup_s" in s]),
        "work_per_s": work / wall if wall else 0.0,
        "peak_rss_mb": _median([s["peak_rss_mb"] for s in samples if "peak_rss_mb" in s]),
    }
    notes.update(
        samples=len(samples),
        setup_samples=len(setups) + len(samples),
        work_unit=unit,
        wall_s=_median([s["wall_s"] for s in timed]),
        raw_setup_s=_median([s["setup_s"] for s in setups + samples if "setup_s" in s]),
        cal_s=_median([s["cal_s"] for s in timed]),
    )
    return metrics, notes, setups + samples


def per_layer(run: Run, seconds: int) -> tuple[dict, dict, list[dict]]:
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{run.wl.name}-seed{run.seed}.json"
    twos: list[dict] = []
    ones: list[dict] = []
    start = time.monotonic()
    while True:  # untraced pairs at two and one workers, as in end_to_end
        twos.append(run.invoke("run", 2))
        ones.append(run.invoke("run", 1))
        if twos[-1].get("failed") or ones[-1].get("failed"):
            break
        now = time.monotonic()
        typical = (now - start) / len(ones)
        if now - start + typical > seconds or now + 2 * typical > run.deadline:
            break
    traced = run.invoke("trace", 1, trace_out=trace_path)
    notes = run.cross_check(twos[0], ones[0])
    run.require(
        traced.get("stdout") == ones[0].get("stdout"),
        f"{run.wl.name}: traced output differs from untraced",
    )
    metrics = {name: 0.0 for name, *_ in LAYER_METRICS}
    metrics.update(traced.get("layers", {}))
    two = _median([norm_wall(s) for s in twos if "wall_s" in s])
    one = _median([norm_wall(s) for s in ones if "wall_s" in s])
    if two and one and "wall_s" in traced:
        metrics["rlncsim.parallel_efficiency"] = one / (2 * two)
        metrics["bench.trace_overhead_frac"] = norm_wall(traced) / one - 1
    notes.update(pairs=len(ones), trace_file=str(trace_path.relative_to(ROOT)))
    return metrics, notes, twos + ones + [traced]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()
    if not (ROOT / "src" / "rlncfail" / "cli.py").is_file():
        print(f"error: no rlncfail package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    wl = WORKLOADS[opts.workload]
    run = Run(wl, opts.seed)
    if opts.trace:
        metrics, notes, children = per_layer(run, opts.seconds)
        units = {name: unit for name, unit, *_ in LAYER_METRICS}
    else:
        metrics, notes, children = end_to_end(run, opts.seconds)
        units = dict(END_TO_END)
    record = {
        "workload": wl.name,
        "argv": wl.argv(opts.seed),
        "seed": opts.seed,
        "trace": opts.trace,
        "machine": machine(children),
        "notes": notes,
        "problems": run.problems,
        "children": [{k: v for k, v in c.items() if k not in ("stdout", "layers")} for c in children],
    }
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": min(len(run.problems), run.attempted),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record["result"] = result
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{wl.name}-seed{opts.seed}-trace{opts.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload: {wl.name}  seed: {opts.seed}  trace: {opts.trace}")
    print("argv: rlncfail " + " ".join(record["argv"]))
    print("machine: " + json.dumps(record["machine"]))
    for name, value in metrics.items():
        print(f"  {name:<34} {value:.6g} {units[name]}")
    if not opts.trace:
        print(f"  {notes['work_unit'] + '_per_s':<34} {metrics['work_per_s']:.6g} 1/s")
    print(f"  {'failed_frac':<34} {result['failed']}/{run.attempted} = {result['failed'] / run.attempted:.3g}")
    for key, value in notes.items():
        print(f"  {key}: {value}")
    for problem in run.problems:
        print(f"  FAILED: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
