"""Random linear network coding, simulated and enumerated.

Ground truth for the sink failure probability: propagate global encoding
kernels under uniformly random local coefficients, decide failure as
rank(decoding matrix) < w, and evaluate the probability two ways:

* `estimate_failure` - Monte Carlo with a Wilson 99% interval.  Trial i
  draws its coefficients from the counter-based stream (seed, i), so results
  are bit-identical across runs and across worker counts.
* `exact_failure` - exhaustive enumeration of all q^N coefficient
  assignments (N = number of adjacent channel pairs), as an exact rational.

Both run one vectorized numpy engine over the field's log/antilog tables,
for every supported field: `_batch_kernels` propagates a (B, N) block of
coefficient rows and `_batch_rank` ranks the decoding matrix of each row.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .galois import FieldSpec, rejection_params, stream_keys_array, words_at
from .netmodel import Network, imaginary_inputs, input_channel_ids

WILSON_Z99 = 2.5758293035489004  # two-sided 99% normal quantile

DEFAULT_ENUMERATION_BUDGET = 1 << 24
_HARD_ENUMERATION_CAP = 1 << 62  # int64 assignment indices
_BLOCK = 1 << 14  # Monte Carlo trials per work block (fixed: results must not
                  # depend on how blocks are scheduled across workers)


class EnumerationBudgetError(RuntimeError):
    """q^N assignments exceed the enumeration budget."""

    def __init__(self, num_slots: int, total: int, budget: int):
        super().__init__(
            f"enumeration needs q^N = {total} assignments for N = {num_slots} "
            f"coefficient slots, above the budget {budget}"
        )
        self.num_slots = num_slots
        self.total = total
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
    rate: int
    slots: tuple[CoefficientSlot, ...]
    channels: tuple[tuple[str, tuple[tuple[str, int], ...]], ...]
    imaginary: tuple[str, ...]
    sink_inputs: dict[str, tuple[str, ...]]


def _compile(net: Network, w: int) -> _Program:
    """Fix the slot order (node topological position, in-channel id,
    out-channel id) and the channel propagation order once per run."""
    pos = {n: i for i, n in enumerate(net.order)}
    slots: list[CoefficientSlot] = []
    slot_index: dict[tuple[str, str], int] = {}
    for node in net.order:
        ins = sorted(input_channel_ids(net, node, w))
        outs = sorted(c.id for c in net.out_channels(node))
        for d in ins:
            for e in outs:
                slot_index[(d, e)] = len(slots)
                slots.append(CoefficientSlot(node, d, e))
    channels = []
    for c in sorted(net.channels, key=lambda c: (pos[c.tail], c.id)):
        ins = tuple(
            (d, slot_index[(d, c.id)])
            for d in sorted(input_channel_ids(net, c.tail, w))
        )
        channels.append((c.id, ins))
    sink_inputs = {
        t: tuple(sorted(c.id for c in net.in_channels(t))) for t in net.sinks
    }
    return _Program(
        rate=w,
        slots=tuple(slots),
        channels=tuple(channels),
        imaginary=imaginary_inputs(w).ids,
        sink_inputs=sink_inputs,
    )


def coefficient_slots(net: Network, w: int) -> tuple[CoefficientSlot, ...]:
    """All local coefficient positions, in the canonical draw/enumeration order."""
    return _compile(net, w).slots


def coefficient_count(net: Network, w: int) -> int:
    return len(coefficient_slots(net, w))


# --- vectorized engine ----------------------------------------------------------

def _batch_rank(mats: np.ndarray, field: FieldSpec) -> np.ndarray:
    """Ranks of a (B, w, c) batch of matrices by batched elimination."""
    B, w, c = mats.shape
    if B == 0:
        return np.zeros(0, dtype=np.int64)
    M = mats.astype(np.int32)
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
        r0 = piv[sel]
        r1 = src[sel]
        tmp = M[sel, r0, :].copy()
        M[sel, r0, :] = M[sel, r1, :]
        M[sel, r1, :] = tmp
        pinv = field.vinv(M[sel, r0, col])
        M[sel, r0, :] = field.vmul(M[sel, r0, :], pinv[:, None])
        pivrow = np.zeros((B, c), dtype=np.int32)
        pivrow[sel] = M[sel, r0, :]
        f = M[:, :, col]
        below = (rows[None, :] > piv[:, None]) & (f != 0) & has[:, None]
        if below.any():
            delta = field.vmul(f[:, :, None], pivrow[:, None, :])
            M = np.where(below[:, :, None], field.vsub(M, delta), M)
        piv = piv + has.astype(np.int64)
    return piv


def _batch_kernels(program: _Program, field: FieldSpec, coeffs: np.ndarray) -> dict[str, np.ndarray]:
    """Global kernel of every channel, a (B, w) array per channel id, for
    each row of the (B, N) coefficient matrix."""
    B = coeffs.shape[0]
    w = program.rate
    eye = np.eye(w, dtype=np.uint16)
    kern = {d: np.broadcast_to(eye[i], (B, w)) for i, d in enumerate(program.imaginary)}
    for cid, ins in program.channels:
        acc = None
        for d, si in ins:
            term = field.vmul(coeffs[:, si][:, None], kern[d])
            acc = term if acc is None else field.vadd(acc, term)
        kern[cid] = acc if acc is not None else np.zeros((B, w), dtype=np.uint16)
    return kern


def _batch_failure_flags(program: _Program, field: FieldSpec, coeffs: np.ndarray, t: str) -> np.ndarray:
    """Boolean failure flag per row of the (B, N) coefficient matrix."""
    cols = program.sink_inputs[t]
    if not cols:
        return np.ones(coeffs.shape[0], dtype=bool)
    kern = _batch_kernels(program, field, coeffs)
    F = np.stack([kern[c] for c in cols], axis=2)
    return _batch_rank(F, field) < program.rate


def _mc_block_failures(
    program: _Program, field: FieldSpec, t: str, seed: int, start: int, count: int
) -> int:
    """Failure count over trials [start, start+count); a pure function of its
    arguments, which is what makes worker scheduling irrelevant."""
    q = field.q
    trials = np.arange(start, start + count, dtype=np.int64)
    keys = stream_keys_array(seed, trials)
    counters = np.zeros(count, dtype=np.uint64)
    shift, limit = rejection_params(q)
    shift_u = np.uint64(shift)
    limit_u = np.uint64(limit)
    q_u = np.uint64(q)
    n = len(program.slots)
    coeffs = np.empty((count, n), dtype=np.int64)
    for j in range(n):
        pending = np.arange(count)
        while pending.size:
            counters[pending] += np.uint64(1)
            cand = words_at(keys[pending], counters[pending]) >> shift_u
            ok = cand < limit_u
            coeffs[pending[ok], j] = (cand[ok] % q_u).astype(np.int64)
            pending = pending[~ok]
    return int(_batch_failure_flags(program, field, coeffs, t).sum())


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
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
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


def exact_failure(
    net: Network,
    w: int,
    field: FieldSpec,
    t: str,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> ExactProbability:
    """Exact failure probability by enumerating all q^N coefficient
    assignments as a mixed-radix counter over the canonical slot order."""
    if t not in net.sinks:
        raise ValueError(f"{t} is not a sink")
    program = _compile(net, w)
    n = len(program.slots)
    q = field.q
    total = q**n
    if total > budget or total > _HARD_ENUMERATION_CAP:
        raise EnumerationBudgetError(n, total, min(budget, _HARD_ENUMERATION_CAP))
    failures = 0
    places = [q ** (n - 1 - j) for j in range(n)]
    batch = 1 << 16
    for start in range(0, total, batch):
        cnt = min(batch, total - start)
        idx = np.arange(start, start + cnt, dtype=np.int64)
        coeffs = np.empty((cnt, n), dtype=np.int64)
        for j, place in enumerate(places):
            coeffs[:, j] = (idx // place) % q
        failures += int(_batch_failure_flags(program, field, coeffs, t).sum())
    frac = Fraction(failures, total)
    return ExactProbability(
        numerator=frac.numerator,
        denominator=frac.denominator,
        failures=failures,
        assignments=total,
        num_slots=n,
    )
