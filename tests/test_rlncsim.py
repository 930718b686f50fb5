"""Kernel propagation, rank, Monte Carlo estimation, exact enumeration."""

from fractions import Fraction

import numpy as np
import pytest

import rlncfail.rlncsim as rlncsim
from oracles import (
    NaiveField,
    butterfly_failure_law,
    corpus_network,
    corpus_params,
    naive_enumerated_failures,
    naive_mc_failures,
    naive_rank,
    plait_failure_law,
)
from rlncfail.galois import (
    FieldElement,
    RandomStream,
    make_field,
    make_field_of_order,
    uniform_element,
    uniform_int,
)
from rlncfail.netmodel import butterfly, plait, random_dag
from rlncfail.rlncsim import (
    CoefficientAssignment,
    EnumerationBudgetError,
    coefficient_count,
    coefficient_slots,
    decoding_matrix,
    estimate_failure,
    exact_failure,
    propagate,
    rank_over_field,
    simulate_once,
    uniform_assignment,
    wilson_interval,
)


def assignment_from_values(net, w, field, values: dict[tuple[str, str], int]):
    coeffs = {pair: FieldElement(v, field) for pair, v in values.items()}
    return CoefficientAssignment(field=field, coeffs=coeffs)


def classic_butterfly_assignment(field):
    """Identity coding at the source, forwarding elsewhere, mixing at b1."""
    values = {("d1", "e1"): 1, ("d2", "e1"): 0, ("d1", "e2"): 0, ("d2", "e2"): 1}
    for d, e in [
        ("e1", "e3"), ("e1", "e6"), ("e2", "e4"), ("e2", "e8"),
        ("e3", "e5"), ("e4", "e5"), ("e5", "e7"), ("e5", "e9"),
    ]:
        values[(d, e)] = 1
    return assignment_from_values(butterfly(), 2, field, values)


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


class TestPropagate:
    def test_single_channel_identity(self):
        f2 = make_field(2)
        net = plait(1, 0)
        cid = net.channels[0].id
        ks = propagate(net, 1, assignment_from_values(net, 1, f2, {("d1", cid): 1}))
        assert [el.value for el in ks.kernels[cid]] == [1]
        ks = propagate(net, 1, assignment_from_values(net, 1, f2, {("d1", cid): 0}))
        assert [el.value for el in ks.kernels[cid]] == [0]

    def test_classic_butterfly_code(self):
        f2 = make_field(2)
        net = butterfly()
        ks = propagate(net, 2, classic_butterfly_assignment(f2))
        assert [el.value for el in ks.kernels["e5"]] == [1, 1]
        assert rank_over_field(decoding_matrix(ks, net, "t1")) == 2
        assert rank_over_field(decoding_matrix(ks, net, "t2")) == 2

    def test_all_ones_over_gf2_cancels_at_the_mix(self):
        # with every coefficient 1, b1 adds two equal kernels: (1,1)+(1,1)=0
        f2 = make_field(2)
        net = butterfly()
        values = {(s.in_id, s.out_id): 1 for s in coefficient_slots(net, 2)}
        ks = propagate(net, 2, assignment_from_values(net, 2, f2, values))
        assert [el.value for el in ks.kernels["e5"]] == [0, 0]
        assert rank_over_field(decoding_matrix(ks, net, "t1")) == 1

    def test_incomplete_assignment_rejected(self):
        f2 = make_field(2)
        net = plait(1, 0)
        with pytest.raises(ValueError, match="incomplete"):
            propagate(net, 1, CoefficientAssignment(field=f2, coeffs={}))

    def test_kernel_recursion_holds(self):
        # f_e equals the coefficient-weighted sum of the kernels into tail(e)
        from rlncfail.netmodel import input_channel_ids

        f4 = make_field(2, 2)
        net = random_dag(4, 2, 0.6, seed=9)
        rng = RandomStream(17)
        assign = uniform_assignment(net, 2, f4, rng)
        ks = propagate(net, 2, assign)
        for c in net.channels:
            expect = [f4.zero, f4.zero]
            for d in input_channel_ids(net, c.tail, 2):
                k = assign.coeffs[(d, c.id)]
                expect = [acc + (k * x) for acc, x in zip(expect, ks.kernels[d])]
            assert tuple(expect) == ks.kernels[c.id]

    def test_message_forwarding_matches_kernels(self):
        # forwarding symbols U_e = sum k * U_d gives exactly X . f_e
        from rlncfail.netmodel import input_channel_ids, topological_order

        f3 = make_field(3)
        net = random_dag(5, 2, 0.5, seed=21)
        rng = RandomStream(4)
        assign = uniform_assignment(net, 2, f3, rng)
        ks = propagate(net, 2, assign)
        x = [uniform_element(f3, rng) for _ in range(2)]
        symbols = {d: x[i] for i, d in enumerate(("d1", "d2"))}
        pos = {n: i for i, n in enumerate(topological_order(net))}
        for c in sorted(net.channels, key=lambda c: (pos[c.tail], c.id)):
            u = f3.zero
            for d in input_channel_ids(net, c.tail, 2):
                u = u + assign.coeffs[(d, c.id)] * symbols[d]
            symbols[c.id] = u
            via_kernel = f3.zero
            for xi, fi in zip(x, ks.kernels[c.id]):
                via_kernel = via_kernel + xi * fi
            assert symbols[c.id] == via_kernel


class TestRank:
    def test_identity(self):
        f5 = make_field(5)
        m = [[f5.one if i == j else f5.zero for j in range(3)] for i in range(3)]
        assert rank_over_field(m) == 3

    def test_zero_matrix(self):
        f2 = make_field(2)
        assert rank_over_field([[f2.zero] * 4 for _ in range(2)]) == 0

    def test_duplicate_rows(self):
        f2 = make_field(2)
        row = [f2.one, f2.one]
        assert rank_over_field([row, row]) == 1

    def test_ragged_rejected(self):
        f2 = make_field(2)
        with pytest.raises(ValueError, match="ragged"):
            rank_over_field([[f2.one], [f2.one, f2.zero]])

    def test_mixed_fields_rejected(self):
        with pytest.raises(ValueError):
            rank_over_field([[make_field(2).one, make_field(3).one]])

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
        net = butterfly()
        ks = propagate(net, 2, classic_butterfly_assignment(f2))
        m = decoding_matrix(ks, net, "t1")
        assert len(m) == 2 and len(m[0]) == 2

    def test_columns_ordered_by_channel_id(self):
        f2 = make_field(2)
        net = butterfly()
        ks = propagate(net, 2, classic_butterfly_assignment(f2))
        m = decoding_matrix(ks, net, "t1")
        # In(t1) = {e6, e7}; e6 carries X1 = (1,0), e7 carries X1+X2 = (1,1)
        assert [row[0].value for row in m] == [1, 0]
        assert [row[1].value for row in m] == [1, 1]

    def test_non_sink_rejected(self):
        f2 = make_field(2)
        net = butterfly()
        ks = propagate(net, 2, classic_butterfly_assignment(f2))
        with pytest.raises(ValueError):
            decoding_matrix(ks, net, "b1")


class TestSimulateOnce:
    def test_rank_bounded_by_rate_and_min_cut(self):
        from rlncfail.flowpaths import min_cut

        f2 = make_field(2)
        for seed, w, q, density in corpus_params(15):
            net = corpus_network(seed, w, density)
            ranks = simulate_once(net, w, f2, RandomStream(seed))
            for t, rank in ranks.items():
                assert 0 <= rank <= min(w, min_cut(net, t))

    def test_deterministic_per_trial(self):
        f2 = make_field(2)
        net = butterfly()
        a = [simulate_once(net, 2, f2, RandomStream(3, stream=i)) for i in range(10)]
        b = [simulate_once(net, 2, f2, RandomStream(3, stream=i)) for i in range(10)]
        assert a == b

    def test_single_channel_failure_rate(self):
        f2 = make_field(2)
        net = plait(1, 0)
        n = 4000
        fails = sum(
            simulate_once(net, 1, f2, RandomStream(12, stream=i))["t"] < 1
            for i in range(n)
        )
        lo, hi = wilson_interval(fails, n)
        assert lo <= 0.5 <= hi


class TestEstimate:
    def test_matches_per_trial_simulation(self):
        f2 = make_field(2)
        net = plait(2, 1)
        n = 300
        est = estimate_failure(net, 2, f2, "t", n, seed=5)
        direct = sum(
            simulate_once(net, 2, f2, RandomStream(5, stream=i))["t"] < 2
            for i in range(n)
        )
        assert est.failures == direct

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

    def test_budget_exceeded(self):
        with pytest.raises(EnumerationBudgetError) as err:
            exact_failure(butterfly(), 2, make_field(2, 4), "t1")
        assert err.value.num_slots == 12
        assert err.value.total == 16**12

    def test_custom_budget(self):
        with pytest.raises(EnumerationBudgetError):
            exact_failure(butterfly(), 2, make_field(2), "t1", budget=100)

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
