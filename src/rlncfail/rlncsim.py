"""Random linear network coding, simulated and evaluated exactly.

Ground truth for the sink failure probability: propagate global encoding
kernels under uniformly random local coefficients, decide failure as
rank(decoding matrix) < w, and evaluate the probability two ways:

* `estimate_failure` - Monte Carlo with a Wilson 99% interval, planned once
  per call and run in units of at most 2^14 trials shared with forked
  workers.  Trial i draws from the counter-based stream (seed, i), so
  results are bit-identical across runs, worker counts and unit sizes.
* `exact_failure` - the exact rational failures / q^N (N = number of
  adjacent channel pairs), by a dynamic program that advances the cut
  between processed and unprocessed nodes one node at a time.

Both run on the network's integer view and the field's array arithmetic
(AND and XOR at q = 2, log/antilog tables above) through numpy, batch axis
last, so every elementwise pass runs along a whole batch.  The Monte Carlo
draws, at every q, only the slots whose channel reaches t, a uint16 block
of B trials' coefficients, and `_kernels` propagates it node by node: each
node's out-kernels are its in-kernels times its (in-kernel, out-channel, B)
block, one `_matmul`.  Both reductions step through the columns with one
`_pivot`, which picks each trial's pivot by bitwise masks and clears the
column: `_full_rank` decides full rank from the OR of its masks, and
`_eliminate` builds the RREFs and ranks.  At q = 2, where AND and XOR act on
each bit alone, the draw comes eight trials a byte through the same
`_kernels` and `_full_rank`.  The DP keeps its frontier in head order,
numbers a node's branches over all its states by one flat int64 index,
writes each branch's choice into the first rows of a state's RREF, and
reduces (r, c, B) batches of frontier matrices with `_eliminate`.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

import numpy as np

from .galois import FieldSpec, uniform_columns
from .netmodel import Network

WILSON_Z99 = 2.5758293035489004  # two-sided 99% normal quantile

MAX_TRIALS = 1 << 32  # bounds a run's length; its units are a lazy range, never a list
DEFAULT_ENUMERATION_BUDGET = 1 << 20  # branches: a few seconds, and states take ~300 B each
MAX_ENUMERATION_BUDGET = 1 << 22  # the CLI's cap: states kept can reach the budget, ~1.3 GB
_UNIT_TRIALS = 1 << 14  # Monte Carlo trials per work unit at most; counts do not depend on it
_UNIT_BYTES = 64 << 20  # a unit's coefficient, kernel and temporary bytes at once
_BRANCH_BATCH = 1 << 20  # matrix entries in one batch of the exact DP's branches


class EnumerationBudgetError(RuntimeError):
    """The exact evaluator's branches exceed its budget; a count of more
    than 30 digits prints to three significant ones."""

    def __init__(self, node: str, branches: int, budget: int):
        count = branches if branches < 10**30 else f"about {Decimal(branches):.2e}"
        super().__init__(f"exact evaluation needs {count} branches up to node {node}, "
                         f"above the budget {budget}")
        self.branches = branches
        self.budget = budget


# --- coefficient slots -----------------------------------------------------------

@dataclass(frozen=True)
class CoefficientSlot:
    """One local coefficient position: incoming channel d, outgoing channel e
    at their shared node."""

    node: str
    in_id: str
    out_id: str


def _fan_in(net: Network, w: int) -> list[int]:
    """|In(i)| for each node i of the integer view; the source's inputs are
    the w imaginary channels, and a rate w below 1 raises ValueError."""
    if w < 1:
        raise ValueError(f"rate must be >= 1, got {w}")
    src = net.index[net.source]
    return [w if i == src else len(js) for i, js in enumerate(net.ins)]


def coefficient_slots(net: Network, w: int) -> tuple[CoefficientSlot, ...]:
    """All local coefficient positions, in the canonical draw/enumeration
    order: node topological position, in-kernel, out-channel.  The source's
    in-channels are the imaginary inputs d1..dw."""
    ids = [c.id for c in net.channels]
    src = net.index[net.source]
    slots = []
    for i, (js, outs) in enumerate(zip(net.ins, net.outs)):
        ins = [f"d{a}" for a in range(1, w + 1)] if i == src else [ids[j] for j in js]
        slots += [CoefficientSlot(net.order[i], d, ids[j]) for d in ins for j in outs]
    return tuple(slots)


def coefficient_count(net: Network, w: int) -> int:
    return sum(a * len(outs) for a, outs in zip(_fan_in(net, w), net.outs))


# --- vectorized engine ----------------------------------------------------------

def _pivot(M: np.ndarray, col: int, nz: np.ndarray, field: FieldSpec):
    """Column col of a batched reduction of an (r, c, B) batch M, in place:
    each trial's pivot is the first row nonzero there, picked by nz, (r, B)
    masks of M's dtype, all ones where M[:, col] is nonzero (a bit-packed M
    at q = 2 is its own mask).  The pivot row is normalized and negated once
    and clears the column, itself to zero.  Returns the one-hot pivot masks
    and the normalized pivot rows and their negatives, (c - col, B); a trial
    with no pivot there has zero rows, so its updates add zero."""
    sel, seen = np.empty_like(nz), np.zeros(M.shape[2], dtype=M.dtype)
    pivrow = np.zeros((M.shape[1] - col, M.shape[2]), dtype=M.dtype)  # zero before col, as M is
    for i in range(len(M)):
        np.bitwise_and(nz[i], ~seen, out=sel[i])
        pivrow |= M[i, col:] & sel[i]
        seen |= nz[i]
    pivrow = field.vmul(pivrow, field.vinv(pivrow[0]))
    neg = field.vneg(pivrow)
    M[:, col:] = field.vadd(M[:, col:], field.vmul(M[:, col, None], neg))
    return sel, pivrow, neg


def _eliminate(M: np.ndarray, field: FieldSpec) -> tuple[np.ndarray, np.ndarray]:
    """Batched reduction of an (r, c, B) batch M (consumed) of canonical
    values, uint16 or wider, batch last: the RREFs, of M's dtype, whose first
    rank rows span each row space and which are canonical per row space, and
    the ranks.  Per column, `_pivot` clears M; every row of the RREF is
    cleared against the pivot too, and the normalized pivot row is appended
    at row rank, with no per-trial row swap."""
    w, c, B = M.shape
    out = np.zeros_like(M)
    piv = np.zeros(B, dtype=np.int64)
    rows = np.arange(w)[:, None]
    for col in range(c):
        if (piv >= w).all():
            break
        sel, pivrow, neg = _pivot(M, col, np.negative(M[:, col] != 0, dtype=M.dtype), field)
        out[:, col:] = field.vadd(out[:, col:], field.vmul(out[:, col, None], neg))
        out[:, col:] += (rows == piv)[:, None] * pivrow
        piv += sel.any(axis=0)
    return out, piv


def _full_rank(M: np.ndarray, field: FieldSpec) -> np.ndarray:
    """Which trials of a (w, c, B) batch M (consumed) have rank w: a (B,)
    mask, nonzero where they do.  At q = 2, M may be bit-packed (bit k of
    M[i, j, b] is entry (i, j) of trial 8b + k), and the mask is packed alike.
    Rank w means every row served as a pivot: the OR of `_pivot`'s masks."""
    used = np.zeros(M.shape[::2], dtype=M.dtype)
    for col in range(M.shape[1]):
        f = M[:, col]
        used |= _pivot(M, col, f if field.q == 2 else np.negative(f != 0, dtype=M.dtype), field)[0]
    return np.bitwise_and.reduce(used, axis=0)


def _matmul(A: np.ndarray, C: np.ndarray, field: FieldSpec) -> np.ndarray:
    """(r, a, ...) x (a, c, ...) matrix products over the field, a >= 1; the
    batch dimensions come last and broadcast like numpy's."""
    out = field.vmul(A[:, 0, None], C[None, 0])
    for k in range(1, A.shape[1]):
        out = field.vadd(out, field.vmul(A[:, k, None], C[None, k]))
    return out


def _kernels(net: Network, w: int, field: FieldSpec, coeffs: np.ndarray, live: list[int]) -> np.ndarray:
    """Global kernels of the live channels, a (w, L, B) array whose column c
    is channel live[c] (ascending indices), for each column of a coefficient
    block that holds the rows of live out-channels' slots alone.
    Node i's live slots are one (in-kernel, out-channel, B) block, so its
    out-kernels are its in-kernels times that block (zero with no in-kernel);
    the source's block is its out-kernels.  The in-channels of a live
    channel's tail must be live too."""
    B, col = coeffs.shape[1], {j: c for c, j in enumerate(live)}
    src = net.index[net.source]
    kern = np.zeros((w, len(col), B), dtype=coeffs.dtype)
    n = 0  # rows of the nodes before this one
    for i, (a, outs) in enumerate(zip(_fan_in(net, w), net.outs)):
        keep = [col[j] for j in outs if j in col]
        block = coeffs[n : n + a * len(keep)].reshape(a, len(keep), B)
        n += a * len(keep)
        if keep and a:
            kern[:, keep] = block if i == src else _matmul(kern[:, [col[j] for j in net.ins[i]]], block, field)
    return kern


def _unit_failures(start: int, plan: tuple) -> int:
    """Failure count over trials [start, min(start + step, trials)) of the
    plan (net, w, field, seed, trials, step, live, sink, words) made by
    `estimate_failure`, a pure function of the two: trial i draws stream
    (seed, i) at the live slots' draw positions, words, however split."""
    net, w, field, seed, trials, step, live, sink, words = plan
    rows = np.arange(start, min(start + step, trials))
    # at q = 2 the draw holds eight trials a byte; it is freed once the kernels are built
    decoding = _kernels(net, w, field, uniform_columns(field.q, seed, rows, words), live)[:, sink]
    full = _full_rank(decoding, field)
    if field.q == 2:
        full = np.unpackbits(full, count=len(rows))
    return len(rows) - int(np.count_nonzero(full))


def _worker(fd: int, starts: range, plan: tuple, cpu: int | None, mask: list[int]) -> None:
    """A forked worker: start on CPU cpu unless it is None, then run on the whole
    mask, and pickle its units' count, or its error, to fd and exit, never returning."""
    try:
        try:
            if cpu is not None:
                os.sched_setaffinity(0, [cpu])  # moves it off the caller's CPU now
                os.sched_setaffinity(0, mask)  # free to move again, as the caller is
            result = sum(_unit_failures(start, plan) for start in starts)
        except BaseException as exc:
            result = exc
        os.write(fd, pickle.dumps(result))
        os._exit(0)
    finally:
        os._exit(1)


# --- failure probability, estimated and exact -----------------------------------

def wilson_interval(failures: int, trials: int) -> tuple[float, float]:
    """Wilson 99% score interval; stays inside [0, 1] even for extreme rates."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= failures <= trials:
        raise ValueError("failures must be in 0..trials")
    p, z = failures / trials, WILSON_Z99
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class FailureEstimate:
    """Monte Carlo estimate of the failure probability at one sink."""

    trials: int
    failures: int
    p_hat: float
    ci_low: float
    ci_high: float
    seed: int


def check_sizes(trials: int | None = None, workers: int = 1, budget: int = 1) -> None:
    """Raise ValueError for workers or budget below 1, or trials outside 1..MAX_TRIALS."""
    for name, n in (("workers", workers), ("budget", budget)):
        if n < 1:
            raise ValueError(f"{name} must be >= 1, got {n}")
    if trials is not None and not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must be in 1..{MAX_TRIALS}, got {trials}")


def estimate_failure(
    net: Network,
    w: int,
    field: FieldSpec,
    t: str,
    trials: int,
    seed: int,
    workers: int = 1,
) -> FailureEstimate:
    """Monte Carlo failure estimate with a Wilson 99% interval.

    Trial i is seeded by the stateless pair (seed, i), so the result is a
    pure function of the arguments: identical across runs, worker counts and
    unit sizes.  The plan is made once, before any fork: the channels whose
    head reaches t (no other can change t's rank), their slots' draw
    positions, and units of at most _UNIT_TRIALS trials whose draw, kernel
    and temporary bytes stay under _UNIT_BYTES (ValueError, before any draw
    or fork, if one trial's do not).  With k = min(workers, units, usable
    CPUs) > 1 and `os.fork`, the caller runs every kth unit from the first,
    and k - 1 forked workers, worker i every kth from the ith, pipe back
    their counts.  With `os.sched_setaffinity`, the caller stays on the
    first CPU of its sorted mask while it forks and worker i starts on the
    ith, and then each takes the whole mask back: a fresh worker otherwise
    stayed on the caller's CPU.  A worker's error, placement included, is
    raised here, one that ends without a result raises ChildProcessError,
    and however the call ends no worker is left running or unreaped, and
    the caller's mask is the one it had.  Sizes `check_sizes` refuses raise
    ValueError first.
    """
    check_sizes(trials, workers)
    if t not in net.sinks:
        raise ValueError(f"{t} is not a sink")
    ti = net.index[t]
    reach = net.reaching(ti)
    live = [j for j, h in enumerate(net.head) if reach[h]]
    sink = np.searchsorted(live, net.ins[ti])  # t's in-channels are live
    alive = np.fromiter((reach[net.head[j]] for a, outs in zip(_fan_in(net, w), net.outs)
                         for _ in range(a) for j in outs), bool)  # a slot is live if its out-channel is
    words = np.flatnonzero(alive)
    # per trial: the uint16 draw of the live slots, the kernels, and under 32 B an entry of
    # field-operation temporaries (int32 copies, intp log sums) on the widest matrix, a node's
    # in-kernels times its out-channels or t's decoding matrix, all a bit at q = 2; per draw,
    # 24 B a slot: the N uint64 counter steps and two chunk buffers of max(2^15, N + 1) words
    width = max(len(net.ins[ti]), *map(len, net.outs))
    per_trial = 2 * len(words) + 2 * w * len(live) + 32 * w * width
    per_trial = per_trial // (16 if field.q == 2 else 1) + 1
    if _UNIT_BYTES - 24 * len(alive) < per_trial:
        raise ValueError(f"N = {len(alive)} coefficient slots: 24 B a slot and {per_trial} B "
                         f"for one trial exceed the unit's {_UNIT_BYTES} B")
    step = min(_UNIT_TRIALS, (_UNIT_BYTES - 24 * len(alive)) // per_trial)
    starts, plan = range(0, trials, step), (net, w, field, seed, trials, step, live, sink, words)
    mask = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    k = min(workers, len(starts), len(mask) or os.cpu_count() or 1) if hasattr(os, "fork") else 1
    place = k > 1 and bool(mask) and hasattr(os, "sched_setaffinity")
    pids, pipes = [], []
    try:
        try:  # pinned while it forks, the caller keeps its CPU and each worker starts on another
            if place:
                os.sched_setaffinity(0, mask[:1])
            for i in range(1, k):
                rfd, wfd = os.pipe()
                pipes.append(open(rfd, "rb"))
                with open(wfd, "wb"):  # closed before the next fork, or no EOF comes
                    if (pid := os.fork()) == 0:
                        _worker(wfd, starts[i::k], plan, mask[i] if place else None, mask)
                pids.append(pid)
        finally:
            if place:
                os.sched_setaffinity(0, mask)
        failures = sum(_unit_failures(start, plan) for start in starts[::k])
        for pid, pipe in zip(pids, pipes):
            data = pipe.read()
            if not data:
                pids.remove(pid)  # reaped here, so not killed below
                raise ChildProcessError(f"worker {pid} sent no result, waitpid status {os.waitpid(pid, 0)[1]}")
            result = pickle.loads(data)
            if isinstance(result, BaseException):
                raise result
            failures += result
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()
    lo, hi = wilson_interval(failures, trials)
    return FailureEstimate(trials, failures, failures / trials, lo, hi, seed)


@dataclass(frozen=True)
class ExactProbability:
    """Exact failure probability as a reduced rational: failures / q^N."""

    numerator: int
    denominator: int
    failures: int
    assignments: int
    num_slots: int

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)


def exact_failure(
    net: Network, w: int, field: FieldSpec, t: str, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> ExactProbability:
    """Exact failure probability by a frontier dynamic program over the nodes
    that reach t, in `net.order`.  The frontier is the channels whose tail is
    processed and whose head is not, stably sorted by head; a state is the
    RREF of the w x k matrix of their global kernels, weighted by the number
    of coefficient assignments that lead to it.  Every head is unprocessed,
    so node v's a in-columns lead and span the first rho coordinates, rho the
    rows nonzero there: v's out-kernels are uniform over rho x |Out| matrices
    padded with zero rows, each hit q^((a - rho)*|Out|) times.  So v branches
    each state q^(rho*|Out|) ways, and equal successors merge.  The rank never
    rises, so only states of rank w are kept.  Slots of channels that cannot
    reach t are free: they scale counts by q.

    A node's branches are one flat index: state p owns the q^(rho_p*|Out|)
    indices below ends[p], the running sum of the counts, so a batch of
    branches, whatever the rho of their states, finds its parents by binary
    search.  The base-q digits of a branch's offset fill v's out-columns row
    by row; the offset is below q^(rho_p*|Out|), so rows from rho_p on stay
    zero.

    `budget` bounds the branches summed over the nodes; it is checked before
    each node is expanded, and EnumerationBudgetError is raised above it.
    A budget outside 1..2^62 (branch indices are int64) raises ValueError first.
    """
    check_sizes(budget=budget)
    if budget > 1 << 62:
        raise ValueError(f"budget must be at most 2^62, got {budget}")
    if t not in net.sinks:
        raise ValueError(f"{t} is not a sink")
    q, n = field.q, coefficient_count(net, w)
    ti, src = net.index[t], net.index[net.source]
    reach = net.reaching(ti)
    frontier = [src] * w  # the head of each frontier channel, in head order
    live = int(reach[src])  # with no path to t every assignment fails
    states = np.broadcast_to(np.eye(w, dtype=np.uint16), (live, w, w))
    weights = [1] * live
    kept = spent = 0
    for v in (v for v in range(len(net.order)) if reach[v] and v != ti):
        outs = [net.head[j] for j in net.outs[v] if reach[net.head[j]]]
        a, b = frontier.count(v), len(outs)  # every head is unprocessed: v's columns lead
        heads = frontier[a:] + outs
        rho = np.count_nonzero(states[:, :, :a].any(axis=2), axis=1)
        total = sum(c * q ** (r * b) for r, c in enumerate(np.bincount(rho).tolist()))
        spent += total
        if spent > budget:
            raise EnumerationBudgetError(net.order[v], spent, budget)
        order = sorted(range(len(heads)), key=heads.__getitem__)  # stable
        count = q ** (rho * b)  # int64 now: every count and sum is at most spent
        ends = np.cumsum(count)
        start, digits = ends - count, int(rho.max(initial=0)) * b
        places = q ** np.arange(digits, dtype=np.int64)[:, None]
        gain = [x * q ** ((a - r) * b) for x, r in zip(weights, rho.tolist())]
        rest = np.ascontiguousarray(states[:, :, a:].transpose(1, 2, 0))  # (w, k, states)
        step = max(1, _BRANCH_BATCH // (w * len(heads)))
        merged: dict[bytes, int] = {}
        for lo in range(0, total, step):
            i = np.arange(lo, min(lo + step, total), dtype=np.int64)
            parent = np.searchsorted(ends, i, side="right")
            choice = i - start[parent]  # below q^(rho*b): rows >= rho stay zero
            cols = np.zeros((w, b, len(i)), dtype=np.uint16)
            cols.reshape(w * b, -1)[:digits] = choice // places % q
            M = np.concatenate([rest.take(parent, axis=2), cols], axis=1)
            M, rank = _eliminate(M.take(order, axis=1), field)  # C order, unlike M[:, order]
            full = rank == w
            M = np.ascontiguousarray(M[:, :, full].transpose(2, 0, 1), dtype=np.uint16)
            keys = M.reshape(-1, w * M.shape[2]).view(f"V{2 * w * M.shape[2]}")
            for key, p in zip(keys.ravel().tolist(), parent[full].tolist()):
                merged[key] = merged.get(key, 0) + gain[p]
        kept += a * b
        frontier = [heads[i] for i in order]
        states = np.frombuffer(b"".join(merged), dtype=np.uint16).reshape(-1, w, len(frontier))
        weights = list(merged.values())
    # assignments are conserved: those not in a rank-w state fail
    failures = q**n - sum(weights) * q ** (n - kept)
    return ExactProbability(*Fraction(failures, q**n).as_integer_ratio(), failures, q**n, n)
