"""Random linear network coding, simulated and evaluated exactly.

Ground truth for the sink failure probability: propagate global encoding
kernels under uniformly random local coefficients, decide failure as
rank(decoding matrix) < w, and evaluate the probability two ways:

* `estimate_failure` - Monte Carlo with a Wilson 99% interval.  Trial i
  draws its coefficients from the counter-based stream (seed, i), so results
  are bit-identical across runs and across worker counts.
* `exact_failure` - the exact rational failures / q^N (N = number of
  adjacent channel pairs), by a dynamic program that advances the cut
  between processed and unprocessed nodes one node at a time.

Both run on the network's integer view and the field's log/antilog tables
through numpy: `_batch_kernels` propagates a (B, N) block of coefficient
rows, and `_eliminate` reduces batches of decoding or frontier matrices.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .galois import FieldSpec, uniform_rows
from .netmodel import Network

WILSON_Z99 = 2.5758293035489004  # two-sided 99% normal quantile

MAX_TRIALS = 1 << 32  # 2^18 blocks; the block list is built before any work starts
DEFAULT_ENUMERATION_BUDGET = 1 << 20  # branches: a few seconds, and states take ~300 B each
_BLOCK = 1 << 14  # Monte Carlo trials per work block (fixed: results must not
                  # depend on how blocks are scheduled across workers)


class EnumerationBudgetError(RuntimeError):
    """The exact evaluator's branches exceed its budget."""

    def __init__(self, node: str, branches: int, budget: int):
        super().__init__(f"exact evaluation needs {branches} branches up to node {node}, "
                         f"above the budget {budget}")
        self.branches = branches
        self.budget = budget


# --- coefficient slots and the compiled propagation program -------------------

@dataclass(frozen=True)
class CoefficientSlot:
    """One local coefficient position: incoming channel d, outgoing channel e
    at their shared node."""

    node: str
    in_id: str
    out_id: str


@dataclass(frozen=True)
class _Program:
    """The propagation program on kernel indices: the imaginary inputs are
    0..w-1 and channel j is w + j.  channels lists (kernel index, ((in-kernel
    index, slot), ...)) in propagation order."""

    rate: int
    num_slots: int
    channels: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]
    sink_inputs: dict[str, tuple[int, ...]]


def _compile(net: Network, w: int) -> _Program:
    """Fix the slot order (node topological position, in-kernel, out-channel)
    and the channel propagation order once per run, from the integer view."""
    src = net.index[net.source]
    ins = [tuple(range(w)) if i == src else tuple(w + j for j in js)  # In(v) as kernels
           for i, js in enumerate(net.ins)]
    channels = []
    n = 0  # slots of the nodes before this one
    for i, outs in enumerate(net.outs):
        for b, j in enumerate(outs):
            slots = (n + a * len(outs) + b for a in range(len(ins[i])))
            channels.append((w + j, tuple(zip(ins[i], slots))))
        n += len(ins[i]) * len(outs)
    sink_inputs = {t: ins[net.index[t]] for t in net.sinks}
    return _Program(rate=w, num_slots=n, channels=tuple(channels), sink_inputs=sink_inputs)


def coefficient_slots(net: Network, w: int) -> tuple[CoefficientSlot, ...]:
    """All local coefficient positions, in the canonical draw/enumeration
    order; the source's in-channels are the imaginary inputs d1..dw."""
    ids = [f"d{a}" for a in range(1, w + 1)] + [c.id for c in net.channels]
    slots = {si: CoefficientSlot(net.channels[k - w].tail, ids[d], ids[k])
             for k, ins in _compile(net, w).channels for d, si in ins}
    return tuple(slot for _, slot in sorted(slots.items()))


def coefficient_count(net: Network, w: int) -> int:
    return _compile(net, w).num_slots


# --- vectorized engine ----------------------------------------------------------

def _eliminate(M: np.ndarray, field: FieldSpec, full: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Batched elimination of a (B, r, c) int32 batch M (modified): the echelon
    forms, whose first rank rows span each row space, and the ranks.
    full=True also clears above the pivots: the RREF, canonical per row space."""
    B, w, c = M.shape
    piv = np.zeros(B, dtype=np.int64)
    rows = np.arange(w)
    for col in range(c):
        if (piv >= w).all():
            break
        colv = M[:, :, col]
        elig = (colv != 0) & (rows[None, :] >= piv[:, None])
        has = elig.any(axis=1)
        if not has.any():
            continue
        src = elig.argmax(axis=1)
        sel = np.nonzero(has)[0]
        r0, r1 = piv[sel], src[sel]
        M[sel, r0, :], M[sel, r1, :] = M[sel, r1, :], M[sel, r0, :]
        pinv = field.vinv(M[sel, r0, col])
        M[sel, r0, :] = field.vmul(M[sel, r0, :], pinv[:, None])
        pivrow = np.zeros((B, c), dtype=np.int32)
        pivrow[sel] = M[sel, r0, :]
        f = M[:, :, col]
        others = rows[None, :] != piv[:, None] if full else rows[None, :] > piv[:, None]
        clear = others & (f != 0) & has[:, None]
        if clear.any():
            delta = field.vmul(f[:, :, None], pivrow[:, None, :])
            M = np.where(clear[:, :, None], field.vsub(M, delta), M)
        piv = piv + has.astype(np.int64)
    return M, piv


def _batch_rank(mats: np.ndarray, field: FieldSpec) -> np.ndarray:
    """Ranks of a (B, w, c) batch of matrices by batched elimination."""
    return _eliminate(mats.astype(np.int32), field)[1]


def _batch_kernels(program: _Program, field: FieldSpec, coeffs: np.ndarray) -> list[np.ndarray]:
    """Global kernel of every imaginary input and channel, a (B, w) array per
    kernel index, for each row of the (B, N) coefficient matrix."""
    B = coeffs.shape[0]
    w = program.rate
    eye = np.eye(w, dtype=np.uint16)
    kern = [np.broadcast_to(eye[i], (B, w)) for i in range(w)] + [None] * len(program.channels)
    for k, ins in program.channels:
        acc = None
        for d, si in ins:
            term = field.vmul(coeffs[:, si][:, None], kern[d])
            acc = term if acc is None else field.vadd(acc, term)
        kern[k] = acc if acc is not None else np.zeros((B, w), dtype=np.uint16)
    return kern


def _mc_block_failures(
    program: _Program, field: FieldSpec, t: str, seed: int, start: int, count: int
) -> int:
    """Failure count over trials [start, start+count); a pure function of its
    arguments, which is what makes worker scheduling irrelevant."""
    coeffs = uniform_rows(field.q, seed, np.arange(start, start + count), program.num_slots)
    kern = _batch_kernels(program, field, coeffs)
    cols = [kern[c] for c in program.sink_inputs[t]]  # none: rank 0, every trial fails
    F = np.stack(cols, axis=2) if cols else np.zeros((count, program.rate, 0), np.uint16)
    return int((_batch_rank(F, field) < program.rate).sum())


def _mc_block_star(args) -> int:
    return _mc_block_failures(*args)


# --- failure probability, estimated and exact -----------------------------------

def wilson_interval(failures: int, trials: int, z: float = WILSON_Z99) -> tuple[float, float]:
    """Wilson score interval; stays inside [0, 1] even for extreme rates."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= failures <= trials:
        raise ValueError("failures must be in 0..trials")
    p = failures / trials
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
    pure function of the arguments: identical across repeated runs and any
    worker count.  At most min(workers, blocks, CPU count) processes start.
    More than MAX_TRIALS trials raise ValueError before any work.
    """
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must be in 1..{MAX_TRIALS}, got {trials}")
    if t not in net.sinks:
        raise ValueError(f"{t} is not a sink")
    program = _compile(net, w)
    blocks = [
        (program, field, t, seed, start, min(_BLOCK, trials - start))
        for start in range(0, trials, _BLOCK)
    ]
    workers = min(workers, len(blocks), os.cpu_count() or 1)
    if workers <= 1:
        counts = [_mc_block_star(b) for b in blocks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(_mc_block_star, blocks))
    failures = sum(counts)
    lo, hi = wilson_interval(failures, trials)
    return FailureEstimate(
        trials=trials,
        failures=failures,
        p_hat=failures / trials,
        ci_low=lo,
        ci_high=hi,
        seed=seed,
    )


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


def _branches(basis, rest, outs: int, field: FieldSpec):
    """(parent state, RREF, rank) of every branch, in batches: basis (g, r, w)
    spans each state's in-columns, rest (g, w, k) holds its other columns, and
    each of the q^(r*outs) choices appends outs vectors of the span to rest."""
    q = field.q
    g, r, w = basis.shape
    k = rest.shape[2] + outs
    per_batch = max(q, (1 << 20) // (w * k))  # matrices per batch: 2^20 entries, or q
    low = 0  # choice digits enumerated by numpy; the others by the loop
    while low < r * outs and q ** (low + 1) <= per_batch:
        low += 1
    choices = np.zeros((q**low, r * outs), dtype=np.int64)
    choices[:, :low] = np.arange(q**low)[:, None] // q ** np.arange(low) % q
    per_state = max(1, per_batch // q**low)
    for high in itertools.product(range(q), repeat=r * outs - low):
        choices[:, low:] = high
        coef = choices.reshape(1, q**low, r, 1, outs)
        for s0 in range(0, g, per_state):
            span = basis[s0 : s0 + per_state, None, :, :, None]
            cols = np.zeros((len(span), q**low, w, outs), dtype=np.int32)
            for i in range(r):
                cols = field.vadd(cols, field.vmul(span[:, :, i], coef[:, :, i]))
            old = np.broadcast_to(rest[s0 : s0 + len(span), None], cols.shape[:3] + (k - outs,))
            M, rank = _eliminate(np.concatenate([old, cols], axis=3).reshape(-1, w, k), field, full=True)
            yield np.repeat(np.arange(s0, s0 + len(span)), q**low), M, rank


def exact_failure(
    net: Network, w: int, field: FieldSpec, t: str, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> ExactProbability:
    """Exact failure probability by a frontier dynamic program over the nodes
    that reach t, in `net.order`.  The frontier is the channels whose tail is
    processed and whose head is not; a state is the RREF of the w x k matrix
    of their global kernels, weighted by the number of coefficient
    assignments that lead to it.  Node v's out-kernels are uniform on the
    span of its in-kernels (rank rho), each value hit q^(|In| - rho) times,
    so v branches each state q^(rho*|Out|) ways, and equal successors merge.
    The frontier's rank never rises, so only states of rank w are kept.
    Slots of channels that cannot reach t are free: they scale counts by q.

    `budget` bounds the branches summed over the nodes; it is checked before
    each node is expanded, and EnumerationBudgetError is raised above it.
    """
    if t not in net.sinks:
        raise ValueError(f"{t} is not a sink")
    q, n = field.q, coefficient_count(net, w)
    ti, src = net.index[t], net.index[net.source]
    reach = [False] * len(net.order)  # node i reaches t
    reach[ti] = True
    for i in reversed(range(len(net.order))):
        reach[i] = reach[i] or any(reach[net.head[j]] for j in net.outs[i])
    frontier = [src] * w  # the head of each frontier channel
    live = int(reach[src])  # with no path to t every assignment fails
    states = np.broadcast_to(np.eye(w, dtype=np.uint16), (live, w, w))
    weights = [1] * live
    kept = spent = 0
    for v in (v for v in range(len(net.order)) if reach[v] and v != ti):
        ins = [i for i, h in enumerate(frontier) if h == v]
        rest = [i for i, h in enumerate(frontier) if h != v]
        heads = [net.head[j] for j in net.outs[v] if reach[net.head[j]]]
        a, b = len(ins), len(heads)
        basis, rho = _eliminate(states[:, :, ins].transpose(0, 2, 1).astype(np.int32), field)
        per_rank = np.bincount(rho).tolist()  # states by the rank of their in-columns
        spent += sum(c * q ** (r * b) for r, c in enumerate(per_rank))
        if spent > budget:
            raise EnumerationBudgetError(net.order[v], spent, budget)
        merged: dict[bytes, int] = {}
        for r in (r for r, c in enumerate(per_rank) if c):
            sel, mult = np.flatnonzero(rho == r), q ** ((a - r) * b)
            for parent, M, rank in _branches(basis[sel, :r], states[sel][:, :, rest], b, field):
                full = rank == w
                keys = M[full].astype(np.uint16).reshape(-1, w * M.shape[2]).view(f"V{2 * w * M.shape[2]}")
                for key, p in zip(keys.ravel().tolist(), sel[parent[full]].tolist()):
                    merged[key] = merged.get(key, 0) + weights[p] * mult
        kept += a * b
        frontier = [frontier[i] for i in rest] + heads
        states = np.frombuffer(b"".join(merged), dtype=np.uint16).reshape(-1, w, len(frontier))
        weights = list(merged.values())
    # assignments are conserved: those not in a rank-w state fail
    failures = q**n - sum(weights) * q ** (n - kept)
    return ExactProbability(*Fraction(failures, q**n).as_integer_ratio(), failures, q**n, n)
