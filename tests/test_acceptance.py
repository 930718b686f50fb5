"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every stated tolerance is asserted exactly as specified (rational
equality where exactness is claimed, Wilson 99% containment for Monte Carlo,
wall-clock limits where stated).
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    RandomStream,
    butterfly_failure_law,
    corpus_network,
    corpus_params,
    exhaustive_min_internal,
    plait_failure_law,
    rank_gf2,
    uniform_int,
)
from rlncfail.bounds import full_report, phi
from rlncfail.cli import main
from rlncfail.flowpaths import min_internal_paths
from rlncfail.galois import _GOLDEN_U64, _mix64, make_field, make_field_of_order
from rlncfail.netmodel import butterfly, plait
from rlncfail.rlncsim import (
    EnumerationBudgetError,
    estimate_failure,
    exact_failure,
    wilson_interval,
)


def cli_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0, f"cli exited {code}"
    return json.loads(out)


def exact_fraction(doc) -> Fraction:
    return Fraction(int(doc["exact"]["num"]), int(doc["exact"]["den"]))


def thm1_fraction(doc) -> Fraction:
    b = doc["bounds"]["thm1"]
    return Fraction(int(b["num"]), int(b["den"]))


def test_criterion_1_butterfly_exactness(capsys):
    t0 = time.monotonic()
    doc2 = cli_json(capsys, "exact", "--gen", "butterfly", "--sink", "t1",
                    "--rate", "2", "--field", "2", "--format", "json")
    elapsed_q2 = time.monotonic() - t0
    assert exact_fraction(doc2) == Fraction(125, 128)
    assert elapsed_q2 < 1.0, f"q=2 enumeration took {elapsed_q2:.2f}s"

    t0 = time.monotonic()
    doc3 = cli_json(capsys, "exact", "--gen", "butterfly", "--sink", "t1",
                    "--rate", "2", "--field", "3", "--format", "json")
    elapsed_q3 = time.monotonic() - t0
    assert exact_fraction(doc3) == Fraction(1931, 2187) == 1 - Fraction(256, 2187)
    assert elapsed_q3 < 60.0, f"q=3 enumeration took {elapsed_q3:.2f}s"

    for q, expect in ((2, exact_fraction(doc2)), (3, exact_fraction(doc3))):
        bounds_doc = cli_json(capsys, "bounds", "--gen", "butterfly", "--sink", "t1",
                              "--rate", "2", "--field", str(q), "--format", "json")
        assert thm1_fraction(bounds_doc) == expect == butterfly_failure_law(q)
    print(
        f"\nACCEPTANCE 1 PASS: butterfly exact = 125/128 (q=2, {elapsed_q2:.2f}s) "
        f"and 1931/2187 (q=3, {elapsed_q3:.2f}s); cut-profile bound equals both"
    )


def test_criterion_2_plait_exactness(capsys):
    t0 = time.monotonic()
    cases = [(1, 1, 2), (2, 0, 2), (2, 1, 2), (1, 2, 3)]
    for w, r, q in cases:
        doc = cli_json(capsys, "exact", "--gen", f"plait:w={w},r={r}",
                       "--field", str(q), "--format", "json")
        got = exact_fraction(doc)
        assert got == 1 - phi(q, w) ** (r + 1), (w, r, q)
        b = full_report(plait(w, r), "t", w).bounds(q)
        assert got == b["thm2"] == b["cor1"] == b["thm3"], (w, r, q)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"plait exactness took {elapsed:.2f}s"
    print(
        f"\nACCEPTANCE 2 PASS: plait exact equals the staged bounds on "
        f"{len(cases)} (w, r, q) cases in {elapsed:.2f}s"
    )


def test_criterion_3_bound_ordering_on_random_corpus():
    budget = 1 << 16  # exact-DP branches per network
    checked = exact_checked = 0
    for seed, w, q, density in corpus_params(200):
        net = corpus_network(seed, w, density)
        field = make_field_of_order(q)
        b = full_report(net, "t", w).bounds(q)
        assert b["lower"] <= b["thm1"] <= b["thm2"] <= b["thm3"], (seed, w, q)
        checked += 1
        try:
            exact = exact_failure(net, w, field, "t", budget=budget).fraction
        except EnumerationBudgetError:
            continue
        assert b["lower"] <= exact <= b["thm1"], (seed, w, q)
        exact_checked += 1
    assert checked == 200
    # 158 of the 200 fit the budget; only 118 have q^N <= 2^16
    assert exact_checked >= 158
    print(
        f"\nACCEPTANCE 3 PASS: bound chain held on all {checked} random DAGs; "
        f"exact probability bracketed on the {exact_checked} within budget"
    )


def _spanning_complement(rng: RandomStream, n: int, k0: int, k1: int) -> list[int]:
    """A uniform basis of a k1-dimensional L1 with <L0 u L1> = F_2^n, L0 the
    span of the first k0 unit vectors, drawn from rng by rejection."""
    l0 = [1 << i for i in range(k0)]
    while True:
        basis = [uniform_int(1 << n, rng) for _ in range(k1)]
        if rank_gf2(basis, n) == k1 and rank_gf2(l0 + basis, n) == n:
            return basis


def _completion_probe(n: int, k0: int, k1: int, trials: int, seed: int):
    """Empirical rate at which m = n - k0 uniform vectors from a spanning
    complement L1 (dim k1) extend a k0-dimensional L0 to all of F_2^n, one
    drawn vector at a time: the reference for `_completion_probe_bulk`."""
    rng = RandomStream(seed)
    l0, basis = [1 << i for i in range(k0)], _spanning_complement(rng, n, k0, k1)
    m = n - k0
    hits = 0
    for _ in range(trials):
        drawn = []
        for _ in range(m):
            mask = uniform_int(1 << k1, rng)
            v = 0
            for j in range(k1):
                if mask >> j & 1:
                    v ^= basis[j]
            drawn.append(v)
        if rank_gf2(l0 + drawn, n) == n:
            hits += 1
    return hits


def _completion_probe_bulk(n: int, k0: int, k1: int, trials: int, seed: int):
    """`_completion_probe` with every mask drawn at once from the same words
    of the same stream, so the hit count is the same.  A draw from 0..2^k1-1
    is the low k1 of the top k1 + 16 bits of a word, never rejected.  The
    drawn vectors extend L0 iff, modulo L0 (dropping the low k0 bits), no
    nonempty subset of them sums to zero."""
    rng = RandomStream(seed)
    basis, m = _spanning_complement(rng, n, k0, k1), n - k0
    counters = np.arange(rng.counter + 1, rng.counter + 1 + trials * m, dtype=np.uint64)
    words = _mix64(np.uint64(rng.key) + _GOLDEN_U64 * counters)
    masks = (words >> np.uint64(48 - k1)) & np.uint64((1 << k1) - 1)
    span = np.zeros(1 << k1, dtype=np.int64)  # span[mask]: the sum of basis[j] over mask's bits
    for j, b in enumerate(basis):
        span[1 << j : 2 << j] = span[: 1 << j] ^ b
    drawn = span[masks].reshape(trials, m) >> k0
    full = np.ones(trials, dtype=bool)
    for subset in range(1, 1 << m):
        full &= np.bitwise_xor.reduce(drawn[:, [j for j in range(m) if subset >> j & 1]], axis=1) != 0
    return int(np.count_nonzero(full))


# the scalar probe's hit counts at 100,000 trials, by seed
PROBE_HITS = {1000: 30785, 1001: 30761, 1010: 32840, 1011: 32677, 1020: 37551, 1021: 37728}


@pytest.mark.parametrize("k0,k1", [(0, 4), (1, 3), (1, 4), (2, 2), (2, 4)])
def test_bulk_completion_probe_matches_scalar(k0, k1):
    for seed in (*PROBE_HITS, 7):
        assert _completion_probe_bulk(4, k0, k1, 300, seed) == _completion_probe(4, k0, k1, 300, seed)


def test_criterion_4_subspace_completion_formula_and_probe():
    for q in (2, 3, 4, 5, 7, 8, 9):
        for gap in range(1, 7):
            miss = 1 - phi(q, gap)
            assert Fraction(1, q) <= miss < Fraction(1, q - 1), (q, gap)

    n, trials = 4, 100_000
    for k0 in (0, 1, 2):
        target = float(phi(2, n - k0))
        intervals = []
        for which, k1 in enumerate((n - k0, n)):  # two complement dimensions
            seed = 1000 + 10 * k0 + which
            hits = _completion_probe_bulk(n, k0, k1, trials, seed)
            assert hits == PROBE_HITS[seed]
            lo, hi = wilson_interval(hits, trials)
            assert lo <= target <= hi, (k0, k1, hits / trials, target)
            intervals.append((lo, hi))
        (lo_a, hi_a), (lo_b, hi_b) = intervals
        assert max(lo_a, lo_b) <= min(hi_a, hi_b), f"no overlap at k0={k0}"
    print(
        "\nACCEPTANCE 4 PASS: completion bracket exact on the (q, n-k0) grid; "
        "sampled completion rates match phi(2, n-k0) and ignore dim(L1)"
    )


def test_criterion_5_monte_carlo_calibration():
    t0 = time.monotonic()
    f2 = make_field(2)
    cases = [
        (butterfly(), 2, "t1", butterfly_failure_law(2)),
        (plait(2, 1), 2, "t", plait_failure_law(2, 2, 1)),
        (plait(1, 2), 1, "t", plait_failure_law(2, 1, 2)),  # 7/8
    ]
    for net, w, sink, exact in cases:
        contained = 0
        for seed in range(20):
            est = estimate_failure(net, w, f2, sink, 100_000, seed=seed)
            if est.ci_low <= float(exact) <= est.ci_high:
                contained += 1
        assert contained >= 18, f"{sink}, exact {exact}: only {contained}/20 intervals contained it"
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"calibration took {elapsed:.2f}s"
    print(
        f"\nACCEPTANCE 5 PASS: Wilson 99% intervals contained the exact value "
        f">= 18/20 seeds for all three networks ({elapsed:.2f}s)"
    )


def test_criterion_6_lower_bound_equality_probe():
    net = plait(1, 0)
    for q in (2, 3, 4, 5):
        exact = exact_failure(net, 1, make_field_of_order(q), "t").fraction
        assert exact == Fraction(1, q) == full_report(net, "t", 1).bounds(q)["lower"]
    print(
        "\nACCEPTANCE 6 PASS: single-channel exact probability equals the "
        "lower bound 1/q for q in {2, 3, 4, 5}"
    )


def test_criterion_7_simulation_determinism(capsys):
    args = ["simulate", "--gen", "butterfly", "--sink", "t1", "--rate", "2",
            "--field", "2", "--trials", "50000", "--seed", "11"]
    outputs = []
    for workers in ("1", "1", "4"):
        code = main(args + ["--workers", workers])
        captured = capsys.readouterr()
        assert code == 0
        outputs.append(captured.out)
    assert outputs[0] == outputs[1] == outputs[2]
    print(
        "\nACCEPTANCE 7 PASS: simulate output byte-identical across repeated "
        "runs and across worker counts 1 and 4"
    )


def test_criterion_8_minimal_path_node_search():
    res = min_internal_paths(butterfly(), "t1", 2)
    assert res.exact and res.paths.r == 4 == exhaustive_min_internal(butterfly(), "t1", 2)
    for w, r in ((1, 0), (1, 3), (2, 2), (3, 1)):
        res = min_internal_paths(plait(w, r), "t", w)
        assert res.exact and res.paths.r == r, (w, r)
    worse = 0
    for seed, w, q, density in corpus_params(200):
        net = corpus_network(seed, w, density)
        exact = min_internal_paths(net, "t", w)
        heur = min_internal_paths(net, "t", w, budget=0)
        assert heur.paths.r >= exact.paths.r, (seed, w)
        worse += heur.paths.r > exact.paths.r
    print(
        "\nACCEPTANCE 8 PASS: exact search matches exhaustive enumeration on "
        f"butterfly and plaits; heuristic never beat it on 200 DAGs "
        f"(strictly worse on {worse})"
    )
