"""Kernel propagation, rank, Monte Carlo estimation, the exact frontier DP."""

import time
from fractions import Fraction

import numpy as np
import pytest

import rlncfail.rlncsim as rlncsim
from oracles import (
    NaiveField,
    RandomStream,
    butterfly_failure_law,
    corpus_network,
    corpus_params,
    enumerated_failures,
    imaginary_inputs,
    input_channel_ids,
    naive_enumerated_failures,
    naive_mc_failures,
    naive_rank,
    plait_failure_law,
    uniform_int,
)
from rlncfail.flowpaths import min_cut
from rlncfail.galois import make_field, make_field_of_order
from rlncfail.netmodel import Channel, Network, butterfly, plait, random_dag
from rlncfail.bounds import full_report
from rlncfail.rlncsim import (
    DEFAULT_ENUMERATION_BUDGET,
    EnumerationBudgetError,
    coefficient_count,
    coefficient_slots,
    estimate_failure,
    exact_failure,
    wilson_interval,
)


def engine_kernels(net, w, field, rows):
    """(program, kernels) from the batch engine: rows is a list of
    {(in_id, out_id): value} assignments, each mapped to one coefficient row
    in `coefficient_slots` order; kernels[cid] is a (B, w) array.  The engine
    indexes kernels by integer, d1..dw first and then the channels in id
    order; kernels keeps that order, keyed by id."""
    program = rlncsim._compile(net, w)
    coeffs = np.array(
        [[values[(s.in_id, s.out_id)] for s in coefficient_slots(net, w)] for values in rows],
        dtype=np.int64,
    )
    ids = imaginary_inputs(w).ids + tuple(c.id for c in net.channels)
    return program, dict(zip(ids, rlncsim._batch_kernels(program, field, coeffs), strict=True))


def sink_ranks(program, kernels, field, t):
    """Rank of the decoding matrix of sink t, one per coefficient row."""
    by_index = list(kernels.values())
    F = np.stack([by_index[k] for k in program.sink_inputs[t]], axis=2)
    return rlncsim._batch_rank(F, field).tolist()


def drawn_values(net, w, field, rng):
    """Uniform coefficients drawn from rng in the canonical slot order."""
    return {(s.in_id, s.out_id): uniform_int(field.q, rng) for s in coefficient_slots(net, w)}


def classic_butterfly_values():
    """Identity coding at the source, forwarding elsewhere, mixing at b1."""
    values = {("d1", "e1"): 1, ("d2", "e1"): 0, ("d1", "e2"): 0, ("d2", "e2"): 1}
    for d, e in [
        ("e1", "e3"), ("e1", "e6"), ("e2", "e4"), ("e2", "e8"),
        ("e3", "e5"), ("e4", "e5"), ("e5", "e7"), ("e5", "e9"),
    ]:
        values[(d, e)] = 1
    return values


class TestSlots:
    def test_butterfly_count(self):
        assert coefficient_count(butterfly(), 2) == 12

    def test_plait_counts(self):
        assert coefficient_count(plait(2, 1), 2) == 8
        assert coefficient_count(plait(1, 1), 1) == 2
        assert coefficient_count(plait(1, 0), 1) == 1

    def test_slot_order_starts_at_source(self):
        slots = coefficient_slots(butterfly(), 2)
        assert [(s.node, s.in_id, s.out_id) for s in slots[:4]] == [
            ("s", "d1", "e1"),
            ("s", "d1", "e2"),
            ("s", "d2", "e1"),
            ("s", "d2", "e2"),
        ]

    def test_source_inputs_in_natural_order(self):
        # d1, d2, ..., d11: not the string order d1, d10, d11, d2, ...
        slots = coefficient_slots(plait(11, 0), 11)
        assert [s.in_id for s in slots[::11]] == list(imaginary_inputs(11).ids)
        assert len(slots) == coefficient_count(plait(11, 0), 11) == 121

    def test_slots_match_oracle_order(self):
        for seed, w, _, density in corpus_params(30):
            net = corpus_network(seed, w, density)
            expect = [
                (v, d, c.id)
                for v in net.order
                for d in input_channel_ids(net, v, w)
                for c in net.out_channels(v)
            ]
            slots = coefficient_slots(net, w)
            assert [(s.node, s.in_id, s.out_id) for s in slots] == expect
            assert coefficient_count(net, w) == len(expect)


class TestPropagate:
    def test_single_channel_identity(self):
        f2 = make_field(2)
        net = plait(1, 0)
        cid = net.channels[0].id
        _, kern = engine_kernels(net, 1, f2, [{("d1", cid): 1}, {("d1", cid): 0}])
        assert kern[cid].tolist() == [[1], [0]]

    def test_classic_butterfly_code(self):
        f2 = make_field(2)
        program, kern = engine_kernels(butterfly(), 2, f2, [classic_butterfly_values()])
        assert kern["e5"].tolist() == [[1, 1]]
        assert sink_ranks(program, kern, f2, "t1") == [2]
        assert sink_ranks(program, kern, f2, "t2") == [2]

    def test_all_ones_over_gf2_cancels_at_the_mix(self):
        # with every coefficient 1, b1 adds two equal kernels: (1,1)+(1,1)=0
        f2 = make_field(2)
        net = butterfly()
        values = {(s.in_id, s.out_id): 1 for s in coefficient_slots(net, 2)}
        program, kern = engine_kernels(net, 2, f2, [values])
        assert kern["e5"].tolist() == [[0, 0]]
        assert sink_ranks(program, kern, f2, "t1") == [1]

    def test_kernel_recursion_holds(self):
        # f_e equals the coefficient-weighted sum of the kernels into tail(e)
        f4 = make_field(2, 2)
        naive = NaiveField(f4)
        net = random_dag(4, 2, 0.6, seed=9)
        values = drawn_values(net, 2, f4, RandomStream(17))
        _, kern = engine_kernels(net, 2, f4, [values])
        for c in net.channels:
            expect = [0, 0]
            for d in input_channel_ids(net, c.tail, 2):
                k = values[(d, c.id)]
                terms = [naive.mul(k, x) for x in kern[d][0].tolist()]
                expect = [naive.add(acc, term) for acc, term in zip(expect, terms)]
            assert expect == kern[c.id][0].tolist()

    def test_message_forwarding_matches_kernels(self):
        # forwarding symbols U_e = sum k * U_d gives exactly X . f_e
        f3 = make_field(3)
        naive = NaiveField(f3)
        net = random_dag(5, 2, 0.5, seed=21)
        rng = RandomStream(4)
        values = drawn_values(net, 2, f3, rng)
        _, kern = engine_kernels(net, 2, f3, [values])
        x = [uniform_int(3, rng) for _ in range(2)]
        symbols = {d: x[i] for i, d in enumerate(("d1", "d2"))}
        pos = {n: i for i, n in enumerate(net.order)}
        for c in sorted(net.channels, key=lambda c: (pos[c.tail], c.id)):
            u = 0
            for d in input_channel_ids(net, c.tail, 2):
                u = naive.add(u, naive.mul(values[(d, c.id)], symbols[d]))
            symbols[c.id] = u
            via_kernel = 0
            for xi, fi in zip(x, kern[c.id][0].tolist()):
                via_kernel = naive.add(via_kernel, naive.mul(xi, fi))
            assert symbols[c.id] == via_kernel


class TestRank:
    def test_identity(self):
        assert rlncsim._batch_rank(np.eye(3, dtype=np.int64)[None], make_field(5)).tolist() == [3]

    def test_zero_matrix(self):
        assert rlncsim._batch_rank(np.zeros((1, 2, 4), np.int64), make_field(2)).tolist() == [0]

    def test_duplicate_rows(self):
        assert rlncsim._batch_rank(np.ones((1, 2, 2), np.int64), make_field(2)).tolist() == [1]

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
    def test_batch_rank_matches_scalar(self, q):
        field = make_field_of_order(q)
        naive = NaiveField(field)
        rng = RandomStream(q)
        for rows, cols in [(1, 1), (2, 2), (2, 3), (3, 2), (3, 5), (4, 4)]:
            mats = np.array(
                [
                    [[uniform_int(q, rng) for _ in range(cols)] for _ in range(rows)]
                    for _ in range(40)
                ],
                dtype=np.int64,
            )
            got = rlncsim._batch_rank(mats, field)
            for b in range(40):
                expect = naive_rank(mats[b].tolist(), naive)
                assert got[b] == expect

    def test_batch_rank_zero_and_identity(self):
        f3 = make_field(3)
        mats = np.stack([np.zeros((3, 3), np.int64), np.eye(3, dtype=np.int64)])
        assert list(rlncsim._batch_rank(mats, f3)) == [0, 3]


class TestDecodingMatrix:
    def test_shapes(self):
        f2 = make_field(2)
        program, kern = engine_kernels(butterfly(), 2, f2, [classic_butterfly_values()])
        by_index = list(kern.values())
        F = np.stack([by_index[k] for k in program.sink_inputs["t1"]], axis=2)
        assert F.shape == (1, 2, 2)

    def test_columns_ordered_by_channel_id(self):
        f2 = make_field(2)
        program, kern = engine_kernels(butterfly(), 2, f2, [classic_butterfly_values()])
        # In(t1) = {e6, e7}: channels 5 and 6, kernels w + 5 and w + 6;
        # e6 carries X1 = (1,0), e7 carries X1+X2 = (1,1)
        assert program.sink_inputs["t1"] == (7, 8)
        assert list(kern)[7:9] == ["e6", "e7"]
        assert kern["e6"].tolist() == [[1, 0]]
        assert kern["e7"].tolist() == [[1, 1]]

    def test_non_sink_rejected(self):
        net = butterfly()
        assert set(rlncsim._compile(net, 2).sink_inputs) == {"t1", "t2"}
        with pytest.raises(ValueError):
            exact_failure(net, 2, make_field(2), "b1")


class TestSimulateOnce:
    """One coding round per coefficient row: uniform draws from a trial's
    stream, propagated kernels, and the rank at each sink."""

    def test_rank_bounded_by_rate_and_min_cut(self):
        f2 = make_field(2)
        for seed, w, q, density in corpus_params(15):
            net = corpus_network(seed, w, density)
            rows = [drawn_values(net, w, f2, RandomStream(seed, stream=i)) for i in range(8)]
            program, kern = engine_kernels(net, w, f2, rows)
            for t in net.sinks:
                for rank in sink_ranks(program, kern, f2, t):
                    assert 0 <= rank <= min(w, min_cut(net, t))

    def test_deterministic_per_trial(self):
        f2 = make_field(2)
        net = butterfly()

        def ranks():
            rows = [drawn_values(net, 2, f2, RandomStream(3, stream=i)) for i in range(10)]
            program, kern = engine_kernels(net, 2, f2, rows)
            return [sink_ranks(program, kern, f2, t) for t in ("t1", "t2")]

        assert ranks() == ranks()

    def test_single_channel_failure_rate(self):
        f2 = make_field(2)
        net = plait(1, 0)
        n = 4000
        rows = [drawn_values(net, 1, f2, RandomStream(12, stream=i)) for i in range(n)]
        program, kern = engine_kernels(net, 1, f2, rows)
        fails = sum(rank < 1 for rank in sink_ranks(program, kern, f2, "t"))
        lo, hi = wilson_interval(fails, n)
        assert lo <= 0.5 <= hi


class TestEstimate:
    def test_matches_per_trial_simulation(self):
        f2 = make_field(2)
        net = plait(2, 1)
        est = estimate_failure(net, 2, f2, "t", 300, seed=5)
        assert est.failures == naive_mc_failures(net, 2, f2, "t", 300, seed=5)

    def test_scalar_engine_matches_vector(self):
        f2 = make_field(2)
        net = butterfly()
        fast = estimate_failure(net, 2, f2, "t1", 500, seed=9)
        assert fast.failures == naive_mc_failures(net, 2, f2, "t1", 500, seed=9)

    @pytest.mark.parametrize("p,m", [(2, 10), (3, 5)])
    def test_extension_field_matches_per_trial_oracle(self, p, m):
        field = make_field(p, m)
        net = butterfly()
        est = estimate_failure(net, 2, field, "t1", 300, seed=4)
        assert est.failures == naive_mc_failures(net, 2, field, "t1", 300, seed=4)

    def test_gf1024_failures_pinned(self):
        assert estimate_failure(butterfly(), 2, make_field(2, 10), "t1", 2000, seed=1).failures == 7

    def test_workers_clamped_to_blocks_and_cpus(self, monkeypatch):
        started = []

        class FakePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(rlncsim, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(rlncsim.os, "cpu_count", lambda: 8)
        f2 = make_field(2)
        trials = 2 * rlncsim._BLOCK + 1  # three blocks
        est = estimate_failure(butterfly(), 2, f2, "t1", trials, seed=3, workers=10**6)
        assert started == [3]
        monkeypatch.setattr(rlncsim.os, "cpu_count", lambda: 2)
        assert estimate_failure(butterfly(), 2, f2, "t1", trials, seed=3, workers=10**6) == est
        assert started == [3, 2]
        monkeypatch.setattr(rlncsim.os, "cpu_count", lambda: None)
        assert estimate_failure(butterfly(), 2, f2, "t1", trials, seed=3, workers=10**6) == est
        assert started == [3, 2]

    def test_compiles_once_per_call(self, monkeypatch):
        compiled = []

        def counting_compile(net, w):
            compiled.append(w)
            return real_compile(net, w)

        real_compile = rlncsim._compile
        monkeypatch.setattr(rlncsim, "_compile", counting_compile)
        trials = 2 * rlncsim._BLOCK + 1  # three blocks
        estimate_failure(plait(2, 1), 2, make_field(2), "t", trials, seed=1, workers=1)
        assert compiled == [2]

    def test_deterministic_across_runs_and_workers(self):
        f2 = make_field(2)
        net = plait(2, 1)
        a = estimate_failure(net, 2, f2, "t", 40_000, seed=1, workers=1)
        b = estimate_failure(net, 2, f2, "t", 40_000, seed=1, workers=1)
        c = estimate_failure(net, 2, f2, "t", 40_000, seed=1, workers=4)
        assert a == b == c

    def test_ci_contains_known_value(self):
        f2 = make_field(2)
        est = estimate_failure(plait(2, 1), 2, f2, "t", 50_000, seed=2)
        assert est.ci_low <= 55 / 64 <= est.ci_high
        assert 0 <= est.ci_low <= est.p_hat <= est.ci_high <= 1

    def test_extension_field_estimate(self):
        f4 = make_field(2, 2)
        est = estimate_failure(plait(1, 1), 1, f4, "t", 30_000, seed=3)
        expect = plait_failure_law(4, 1, 1)
        assert est.ci_low <= float(expect) <= est.ci_high

    def test_invalid_args(self):
        f2 = make_field(2)
        with pytest.raises(ValueError):
            estimate_failure(butterfly(), 2, f2, "t1", 0, seed=1)
        with pytest.raises(ValueError):
            estimate_failure(butterfly(), 2, f2, "b1", 10, seed=1)

    def test_trials_above_max_rejected_before_compiling(self, monkeypatch):
        def no_compile(net, w):
            raise AssertionError("compiled a run that should be refused")

        monkeypatch.setattr(rlncsim, "_compile", no_compile)
        assert rlncsim.MAX_TRIALS == 1 << 32
        with pytest.raises(ValueError, match=r"trials must be in 1\.\.4294967296, got 4294967297"):
            estimate_failure(butterfly(), 2, make_field(2), "t1", (1 << 32) + 1, seed=1)


class TestWilson:
    def test_against_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        for fails, n in [(0, 10), (10, 10), (3, 17), (5000, 10_000), (97650, 100_000)]:
            lo, hi = wilson_interval(fails, n)
            ci = stats.binomtest(fails, n).proportion_ci(confidence_level=0.99, method="wilson")
            assert lo == pytest.approx(ci.low, abs=1e-12)
            assert hi == pytest.approx(ci.high, abs=1e-12)

    def test_bounds_clamped(self):
        lo, hi = wilson_interval(0, 5)
        assert lo == 0.0
        lo, hi = wilson_interval(5, 5)
        assert hi == 1.0


class TestExact:
    def test_hand_enumerated_plait_1_1(self):
        # two coefficients over F_2: assignments (0,0),(0,1),(1,0) fail
        res = exact_failure(plait(1, 1), 1, make_field(2), "t")
        assert res.fraction == Fraction(3, 4)
        assert (res.failures, res.assignments, res.num_slots) == (3, 4, 2)

    def test_plait_2_0(self):
        res = exact_failure(plait(2, 0), 2, make_field(2), "t")
        assert res.fraction == Fraction(5, 8)

    def test_butterfly_both_fields(self):
        res = exact_failure(butterfly(), 2, make_field(2), "t1")
        assert res.fraction == Fraction(125, 128) == butterfly_failure_law(2)
        assert res.failures == 4000 and res.assignments == 4096

    def test_plait_law_grid(self):
        for w, r, q in [(1, 0, 2), (1, 1, 2), (2, 0, 2), (2, 1, 2), (1, 2, 3), (1, 1, 4), (2, 0, 3), (3, 0, 2), (1, 0, 5), (1, 1, 9)]:
            field = make_field_of_order(q)
            res = exact_failure(plait(w, r), w, field, "t")
            assert res.fraction == plait_failure_law(q, w, r), (w, r, q)

    def test_budget_exceeded(self, monkeypatch):
        # the source of plait(4, 1) branches 16^(4*4) ways at q = 16
        def no_expansion(*args):
            raise AssertionError("a node was expanded before the budget check")

        monkeypatch.setattr(rlncsim, "_branches", no_expansion)
        with pytest.raises(EnumerationBudgetError) as err:
            exact_failure(plait(4, 1), 4, make_field(2, 4), "t")
        assert err.value.branches == 16**16
        assert err.value.budget == DEFAULT_ENUMERATION_BUDGET
        assert str(err.value) == (
            f"exact evaluation needs {16**16} branches up to node s, "
            f"above the budget {DEFAULT_ENUMERATION_BUDGET}"
        )

    def test_custom_budget(self):
        # butterfly t1 over GF(2) takes 16 + 4 + 6 + 10 + 2 branches at s, u1, u2, b1, b2
        with pytest.raises(EnumerationBudgetError) as err:
            exact_failure(butterfly(), 2, make_field(2), "t1", budget=37)
        assert (err.value.branches, err.value.budget) == (38, 37)
        assert "up to node b2" in str(err.value)
        with pytest.raises(EnumerationBudgetError, match="needs 20 branches up to node u1"):
            exact_failure(butterfly(), 2, make_field(2), "t1", budget=19)
        assert exact_failure(butterfly(), 2, make_field(2), "t1", budget=38).failures == 4000

    def test_scalar_engine_matches_vector(self):
        f3 = make_field(3)
        net = plait(2, 1)
        fast = exact_failure(net, 2, f3, "t")
        assert fast.failures == naive_enumerated_failures(net, 2, f3, "t")

    def test_large_extension_field_scalar_path(self):
        # q = 512, an extension field above 256, must still be exact
        f512 = make_field(2, 9)
        res = exact_failure(plait(1, 0), 1, f512, "t")
        assert res.fraction == Fraction(1, 512)

    def test_denominator_divides_power(self):
        res = exact_failure(plait(2, 1), 2, make_field(2), "t")
        q_n = 2 ** res.num_slots
        assert q_n % res.denominator == 0

    def test_second_sink(self):
        res = exact_failure(butterfly(), 2, make_field(2), "t2")
        assert res.fraction == Fraction(125, 128)

    @pytest.mark.parametrize("seed", range(12))
    def test_estimator_ci_contains_exact_small(self, seed):
        # fixed seeds keep this deterministic; a 99% interval misses a given
        # seed rarely, and none of these do
        net = corpus_network(seed, 1 + seed % 2, 0.5)
        w = 1 + seed % 2
        f2 = make_field(2)
        if coefficient_count(net, w) > 14:
            return
        exact = exact_failure(net, w, f2, "t", budget=1 << 16)
        est = estimate_failure(net, w, f2, "t", 20_000, seed=seed)
        assert est.ci_low - 1e-12 <= float(exact.fraction) <= est.ci_high + 1e-12


class TestFrontierDP:
    """The frontier DP against enumeration and against the paper's bounds."""

    def test_matches_enumeration_on_small_corpus(self):
        # every corpus network with q^N <= 2^16; the per-assignment oracle on
        # those with q^N <= 2^8, where it stays fast
        checked = naive_checked = 0
        for seed, w, q, density in corpus_params(200):
            net = corpus_network(seed, w, density)
            size = q ** coefficient_count(net, w)
            if size > 1 << 16:
                continue
            field = make_field_of_order(q)
            res = exact_failure(net, w, field, "t")
            assert res.assignments == size
            assert res.failures == enumerated_failures(net, w, field, "t"), (seed, w, q)
            checked += 1
            if size <= 1 << 8:
                assert res.failures == naive_enumerated_failures(net, w, field, "t"), (seed, w, q)
                naive_checked += 1
        assert (checked, naive_checked) == (118, 74)

    @pytest.mark.parametrize("sink", ["t1", "t2"])
    @pytest.mark.parametrize("q", [2, 3])
    def test_butterfly_matches_enumeration(self, sink, q):
        field = make_field_of_order(q)
        res = exact_failure(butterfly(), 2, field, sink)
        assert res.failures == enumerated_failures(butterfly(), 2, field, sink)
        if q == 2:
            assert res.failures == naive_enumerated_failures(butterfly(), 2, field, sink)

    @pytest.mark.parametrize("sink", ["t1", "t2"])
    def test_butterfly_q4_pinned(self, sink):
        # 4^12 assignments: the count the enumerator found, and the closed form
        res = exact_failure(butterfly(), 2, make_field(2, 2), sink)
        assert (res.failures, res.assignments, res.num_slots) == (13044736, 4**12, 12)
        assert res.fraction == butterfly_failure_law(4)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
    def test_butterfly_equals_thm1(self, q):
        field = make_field_of_order(q)
        start = time.monotonic()
        exact = exact_failure(butterfly(), 2, field, "t1").fraction
        elapsed = time.monotonic() - start
        assert exact == full_report(butterfly(), "t1", 2, field).thm1 == butterfly_failure_law(q)
        assert elapsed < 1.0, f"q={q} took {elapsed:.2f}s"

    @pytest.mark.parametrize("q", [2, 3])
    def test_plait_3_2_equals_every_upper_bound(self, q):
        field = make_field_of_order(q)
        exact = exact_failure(plait(3, 2), 3, field, "t").fraction
        rep = full_report(plait(3, 2), "t", 3, field)
        assert exact == rep.thm1 == rep.thm2 == rep.thm3 == plait_failure_law(q, 3, 2)

    def test_sink_without_a_path_always_fails(self):
        # x has no in-channel, so t's kernels are all zero
        net = Network(
            {"s": "source", "x": "internal", "t": "sink", "u": "sink"},
            [Channel("e1", "s", "u"), Channel("e2", "x", "t")],
        )
        res = exact_failure(net, 1, make_field(3), "t")
        assert (res.failures, res.assignments) == (3, 3)

    def test_slots_that_cannot_reach_the_sink_are_free(self):
        # e8 and e9 feed only t2: the DP skips their slots yet counts q^N
        res = exact_failure(butterfly(), 1, make_field(2), "t1")
        assert res.assignments == 2 ** coefficient_count(butterfly(), 1)
        assert res.failures == naive_enumerated_failures(butterfly(), 1, make_field(2), "t1")
