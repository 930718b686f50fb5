"""Kernel propagation, rank, Monte Carlo estimation, the exact frontier DP."""

import os
import signal
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import rlncfail.rlncsim as rlncsim
from oracles import (
    NaiveField,
    RandomStream,
    _batch_rank,
    butterfly_failure_law,
    corpus_network,
    corpus_params,
    enumerated_failures,
    full_draw_failures,
    imaginary_inputs,
    input_channel_ids,
    naive_enumerated_failures,
    naive_mc_failures,
    naive_rank,
    plait_failure_law,
    uniform_int,
)
from rlncfail.flowpaths import min_cut
from rlncfail.galois import make_field, make_field_of_order, uniform_columns
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
    """(K, kernels) from the batch engine with every channel computed: rows
    is a list of {(in_id, out_id): value} assignments, each mapped to one
    coefficient column in `coefficient_slots` order.  K is the engine's
    (w, E, B) array, channel j in column j; kernels maps d1..dw and every
    channel id to its (B, w) kernels."""
    coeffs = np.array(
        [[values[(s.in_id, s.out_id)] for values in rows] for s in coefficient_slots(net, w)],
        dtype=np.uint16,
    )
    K = rlncsim._kernels(net, w, field, coeffs, list(range(len(net.channels))))
    eye = np.eye(w, dtype=np.uint16)
    kernels = {d: np.broadcast_to(eye[a], (len(rows), w))
               for a, d in enumerate(imaginary_inputs(w).ids)}
    kernels.update((c.id, K[:, j].T) for j, c in enumerate(net.channels))
    return K, kernels


def sink_ranks(net, K, field, t):
    """Rank of the decoding matrix of sink t, one per coefficient column."""
    return _batch_rank(K[:, list(net.ins[net.index[t]])], field).tolist()


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


def record_forks(monkeypatch) -> list[int]:
    """The pids `os.fork` returns to the caller from now on."""
    forks, fork = [], os.fork

    def recording():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(rlncsim.os, "fork", recording)
    return forks


def assert_reaped(pids) -> None:
    """No such process: neither running nor a zombie."""
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


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
        net = butterfly()
        K, kern = engine_kernels(net, 2, f2, [classic_butterfly_values()])
        assert kern["e5"].tolist() == [[1, 1]]
        assert sink_ranks(net, K, f2, "t1") == [2]
        assert sink_ranks(net, K, f2, "t2") == [2]

    def test_all_ones_over_gf2_cancels_at_the_mix(self):
        # with every coefficient 1, b1 adds two equal kernels: (1,1)+(1,1)=0
        f2 = make_field(2)
        net = butterfly()
        values = {(s.in_id, s.out_id): 1 for s in coefficient_slots(net, 2)}
        K, kern = engine_kernels(net, 2, f2, [values])
        assert kern["e5"].tolist() == [[0, 0]]
        assert sink_ranks(net, K, f2, "t1") == [1]

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

    def test_packed_gf2_kernels_are_the_kernels_packed(self):
        # the Monte Carlo runs q = 2 eight trials a byte through the same
        # propagation, 61 trials here so the last byte has padding bits
        net, f2 = random_dag(12, 4, 0.5, seed=5), make_field(2)
        packed_draw = uniform_columns(2, 3, np.arange(61), coefficient_count(net, 4))
        coeffs = np.unpackbits(packed_draw, axis=1, count=61)
        live = list(range(len(net.channels)))
        packed = rlncsim._kernels(net, 4, f2, packed_draw, live)
        assert packed.dtype == np.uint8
        assert (packed == np.packbits(rlncsim._kernels(net, 4, f2, coeffs, live) != 0, axis=2)).all()

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


class TestMatmul:
    @staticmethod
    def naive_product(A, C, c, naive):
        """A (r, a) times C (a, c), one scalar at a time."""
        out = [[0] * c for _ in A]
        for i, row in enumerate(A):
            for j in range(c):
                for k, x in enumerate(row):
                    out[i][j] = naive.add(out[i][j], naive.mul(x, C[k][j]))
        return out

    @pytest.mark.parametrize("q", [2, 3, 4, 9])
    def test_matches_naive_product(self, q):
        # batch shapes (5, 1) and (1, 3), last, broadcast to (5, 3)
        field = make_field_of_order(q)
        naive = NaiveField(field)
        rng = RandomStream(q, stream=1)
        for r, a, c in [(1, 1, 1), (2, 3, 4), (3, 2, 1)]:
            A = np.array([[uniform_int(q, rng) for _ in range(5 * r * a)]]).reshape(5, 1, r, a)
            C = np.array([[uniform_int(q, rng) for _ in range(3 * a * c)]]).reshape(1, 3, a, c)
            got = rlncsim._matmul(A.transpose(2, 3, 0, 1), C.transpose(2, 3, 0, 1), field)
            assert got.shape == (r, c, 5, 3)
            for i in range(5):
                for j in range(3):
                    expect = self.naive_product(A[i, 0].tolist(), C[0, j].tolist(), c, naive)
                    assert got[:, :, i, j].tolist() == expect

    def test_gf2_product_matches_table_product(self):
        # q = 2 multiplies by AND; the tables the engine no longer uses at
        # q = 2 still give the reference product
        field = make_field(2)
        exp, log = field._tables
        rng = np.random.default_rng(2)
        A = rng.integers(0, 2, (4, 3, 64)).astype(np.uint16)
        C = rng.integers(0, 2, (3, 5, 64)).astype(np.uint16)
        expect = np.zeros((4, 5, 64), dtype=np.uint16)
        for k in range(3):
            expect ^= exp[log[A[:, k, None]] + log[C[None, k]]]
        got = rlncsim._matmul(A, C, field)
        assert got.dtype == np.uint16
        assert (got == expect).all()


class TestRank:
    def test_identity(self):
        assert _batch_rank(np.eye(3, dtype=np.int64)[:, :, None], make_field(5)).tolist() == [3]

    def test_zero_matrix(self):
        assert _batch_rank(np.zeros((2, 4, 1), np.int64), make_field(2)).tolist() == [0]

    def test_duplicate_rows(self):
        assert _batch_rank(np.ones((2, 2, 1), np.int64), make_field(2)).tolist() == [1]

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
            got = _batch_rank(mats.transpose(1, 2, 0), field)
            for b in range(40):
                expect = naive_rank(mats[b].tolist(), naive)
                assert got[b] == expect

    def test_batch_rank_zero_and_identity(self):
        f3 = make_field(3)
        mats = np.stack([np.zeros((3, 3), np.int64), np.eye(3, dtype=np.int64)], axis=2)
        assert list(_batch_rank(mats, f3)) == [0, 3]

    @pytest.mark.parametrize("w", [1, 2, 4, 10])
    def test_full_rank_matches_eliminate(self, w):
        # the Monte Carlo's rank test against the DP's elimination; at q = 2
        # eight trials a byte, where batch sizes that are not multiples of 8
        # leave padding bits in the last byte.  Trial 0 is the zero matrix,
        # trial 1 an identity (of rank min(w, c)) and trial 2 has a duplicate row
        rng = np.random.default_rng(w)
        for q in (2, 3, 4, 9, 625, 1024, 65521):
            field = make_field_of_order(q)
            for c in (w - 1, w, w + 3):
                for B in (3, 13, 203):
                    mats = rng.integers(0, q, (w, c, B), dtype=np.uint16)
                    mats[:, :, 0] = 0
                    mats[:, :, 1] = np.eye(w, c, dtype=np.uint16)
                    mats[-1, :, 2] = mats[0, :, 2]
                    expect = rlncsim._eliminate(mats.copy(), field)[1] == w
                    if q == 2:
                        full = rlncsim._full_rank(np.packbits(mats != 0, axis=2), field)
                        assert full.shape == (-(-B // 8),)
                        full = np.unpackbits(full, count=B)
                    else:
                        full = rlncsim._full_rank(mats, field)
                        assert full.shape == (B,)
                    assert (full != 0).tolist() == expect.tolist()
                    assert expect[1] == (c >= w) and not expect[0] and (w == 1 or not expect[2])
                    if c:  # any nonzero row would give these ranks and RREFs;
                        # the pivot is the first, normalized, and clears its column
                        M, nz = mats.copy(), mats[:, 0] != 0
                        sel, pivrow, _ = rlncsim._pivot(M, 0, np.negative(nz, dtype=M.dtype), field)
                        assert ((sel != 0) == (nz & (np.cumsum(nz, axis=0) == 1))).all()
                        assert (pivrow[0] == nz.any(axis=0)).all() and not M[:, 0].any()

    @pytest.mark.parametrize("q", [2, 3, 4, 9])
    def test_full_elimination_is_canonical(self, q):
        # the exact DP merges states by their RREF bytes, so rows replaced by
        # random invertible combinations of themselves must give the same
        # bytes; some matrices have a duplicate row, a zero row, or both
        field = make_field_of_order(q)
        naive = NaiveField(field)
        rng = RandomStream(q, stream=2)
        for r, c in [(2, 3), (3, 3), (3, 5), (4, 2)]:
            mats, mixed = [], []
            for b in range(30):
                M = [[uniform_int(q, rng) for _ in range(c)] for _ in range(r)]
                if b % 3 == 0:
                    M[-1] = list(M[0])
                if b % 4 == 0:
                    M[1] = [0] * c
                P = [[1]]
                while naive_rank(P, naive) < r:
                    P = [[uniform_int(q, rng) for _ in range(r)] for _ in range(r)]
                mats.append(M)
                mixed.append(TestMatmul.naive_product(P, M, c, naive))
            got, rank = rlncsim._eliminate(np.array(mats, np.int32).transpose(1, 2, 0).copy(), field)
            via, rank_via = rlncsim._eliminate(np.array(mixed, np.int32).transpose(1, 2, 0).copy(), field)
            assert got.tobytes() == via.tobytes()
            assert rank.tolist() == rank_via.tolist() == [naive_rank(M, naive) for M in mats]

    @pytest.mark.parametrize("q", [2, 3, 4, 1024])
    def test_echelon_rows_span_the_row_space(self, q):
        # the DP reads a rank off an RREF's leading columns as its nonzero
        # rows: the first rank rows are in reduced echelon form, the rows
        # below them are zero, and the form is its own RREF.  Batches mix
        # ranks: zero matrices, zero rows, duplicate rows and rows that are
        # sums of others
        field = make_field_of_order(q)
        naive = NaiveField(field)
        rng = RandomStream(q, stream=3)
        for r, c in [(2, 3), (3, 3), (4, 5), (4, 2), (3, 6)]:
            mats = []
            for b in range(40):
                M = [[uniform_int(q, rng) for _ in range(c)] for _ in range(r)]
                if b % 10 == 0:
                    M = [[0] * c for _ in range(r)]
                if b % 3 == 1:
                    M[-1] = list(M[0])
                if b % 4 == 2:
                    M[b % r] = [0] * c
                if b % 5 == 3:
                    M[-1] = [naive.add(x, y) for x, y in zip(M[0], M[1])]
                mats.append(M)
            batch = np.array(mats, np.uint16).transpose(1, 2, 0)
            E, rank = rlncsim._eliminate(batch.copy(), field)
            assert len(set(rank.tolist())) > 1
            assert not np.where(np.arange(r)[:, None, None] < rank, 0, E).any()
            again, _ = rlncsim._eliminate(E.copy(), field)
            assert again.tobytes() == E.tobytes()
            for b, M in enumerate(mats):
                rows = E[: rank[b], :, b].tolist()
                assert rank[b] == naive_rank(M, naive) == naive_rank(rows, naive)
                assert naive_rank(M + rows, naive) == rank[b]
                leads = [next(j for j, x in enumerate(row) if x) for row in rows]
                assert leads == sorted(set(leads))  # echelon: leading columns rise
                assert [[row[j] for row in rows] for j in leads] == np.eye(len(rows)).tolist()


class TestKernelColumns:
    def test_shapes(self):
        f2 = make_field(2)
        net = butterfly()
        K, _ = engine_kernels(net, 2, f2, [classic_butterfly_values()])
        assert K.shape == (2, 9, 1)
        assert K[:, list(net.ins[net.index["t1"]])].shape == (2, 2, 1)

    def test_columns_ordered_by_channel_id(self):
        f2 = make_field(2)
        net = butterfly()
        K, _ = engine_kernels(net, 2, f2, [classic_butterfly_values()])
        # In(t1) = {e6, e7}: channels 5 and 6, columns 5 and 6 of K;
        # e6 carries X1 = (1,0), e7 carries X1+X2 = (1,1)
        assert net.ins[net.index["t1"]] == (5, 6)
        assert [c.id for c in net.channels[5:7]] == ["e6", "e7"]
        assert K[:, 5].T.tolist() == [[1, 0]]
        assert K[:, 6].T.tolist() == [[1, 1]]

    def test_non_sink_rejected(self):
        with pytest.raises(ValueError):
            exact_failure(butterfly(), 2, make_field(2), "b1")


class TestPerTrialRanks:
    """One coding round per coefficient row: uniform draws from a trial's
    stream, propagated kernels, and the rank at each sink."""

    def test_rank_bounded_by_rate_and_min_cut(self):
        f2 = make_field(2)
        for seed, w, q, density in corpus_params(15):
            net = corpus_network(seed, w, density)
            rows = [drawn_values(net, w, f2, RandomStream(seed, stream=i)) for i in range(8)]
            K, _ = engine_kernels(net, w, f2, rows)
            for t in net.sinks:
                for rank in sink_ranks(net, K, f2, t):
                    assert 0 <= rank <= min(w, min_cut(net, t))

    def test_deterministic_per_trial(self):
        f2 = make_field(2)
        net = butterfly()

        def ranks():
            rows = [drawn_values(net, 2, f2, RandomStream(3, stream=i)) for i in range(10)]
            K, _ = engine_kernels(net, 2, f2, rows)
            return [sink_ranks(net, K, f2, t) for t in ("t1", "t2")]

        assert ranks() == ranks()

    def test_single_channel_failure_rate(self):
        f2 = make_field(2)
        net = plait(1, 0)
        n = 4000
        rows = [drawn_values(net, 1, f2, RandomStream(12, stream=i)) for i in range(n)]
        K, _ = engine_kernels(net, 1, f2, rows)
        fails = sum(rank < 1 for rank in sink_ranks(net, K, f2, "t"))
        lo, hi = wilson_interval(fails, n)
        assert lo <= 0.5 <= hi


class TestEstimate:
    def test_matches_per_trial_simulation(self):
        f2 = make_field(2)
        net = plait(2, 1)
        est = estimate_failure(net, 2, f2, "t", 300, seed=5)
        assert est.failures == naive_mc_failures(net, 2, f2, "t", 300, seed=5)

    def test_butterfly_matches_per_trial_simulation(self):
        f2 = make_field(2)
        net = butterfly()
        fast = estimate_failure(net, 2, f2, "t1", 500, seed=9)
        assert fast.failures == naive_mc_failures(net, 2, f2, "t1", 500, seed=9)

    def test_channels_that_cannot_reach_the_sink_are_skipped(self, monkeypatch):
        # e8 and e9 feed only t2: their kernels are neither stored nor
        # computed for t1, and at q = 2 their slots are not drawn either:
        # 10 of the 12 words, and still the oracle's count
        computed, drawn = [], []
        kernels = rlncsim._kernels

        def recording(net, w, field, coeffs, live):
            K = kernels(net, w, field, coeffs, live)
            assert K.shape == (w, len(live), coeffs.shape[1])
            computed.append([net.channels[j].id for c, j in enumerate(live) if K[:, c].any()])
            drawn.append(len(coeffs))
            return K

        monkeypatch.setattr(rlncsim, "_kernels", recording)
        f2 = make_field(2)
        est = estimate_failure(butterfly(), 2, f2, "t1", 500, seed=9)
        assert computed == [["e1", "e2", "e3", "e4", "e5", "e6", "e7"]]
        assert drawn == [10]
        assert est.failures == naive_mc_failures(butterfly(), 2, f2, "t1", 500, seed=9)

    @pytest.mark.parametrize("q", [2, 3, 4, 9, 16, 1024])
    def test_matches_the_full_draw(self, monkeypatch, q):
        # butterfly t1 has 10 of 12 slots live, dag12 76 of 85; at every q
        # only those are drawn, and the kernels keep the live rows.  Three
        # units, the last of 5 trials, at 1 to 3 workers: at 3 the caller
        # runs the first and two forked workers the rest
        monkeypatch.setattr(rlncsim.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        field = make_field_of_order(q)
        trials = 2 * rlncsim._UNIT_TRIALS + 5
        for net, w, t in ((butterfly(), 2, "t1"), (random_dag(12, 4, 0.5, seed=5), 4, "t")):
            expect = full_draw_failures(net, w, field, t, trials, seed=q)
            for workers in (1, 2, 3):
                assert estimate_failure(net, w, field, t, trials, seed=q, workers=workers).failures == expect

    @pytest.mark.parametrize("t", ["t", "v"])
    def test_sink_without_a_path_always_fails(self, t):
        # t's only in-channel leaves x, which has no in-channel; v has none
        net = Network(
            {"s": "source", "x": "internal", "t": "sink", "u": "sink", "v": "sink"},
            [Channel("e1", "s", "u"), Channel("e2", "x", "t")],
        )
        est = estimate_failure(net, 1, make_field(3), t, 200, seed=6)
        assert est.failures == est.trials == naive_mc_failures(net, 1, make_field(3), t, 200, seed=6)
        # at q = 2 no slot reaches t, so nothing is drawn
        assert estimate_failure(net, 1, make_field(2), t, 200, seed=6).failures == 200

    @pytest.mark.parametrize("p,m", [(2, 10), (3, 5)])
    def test_extension_field_matches_per_trial_oracle(self, p, m):
        field = make_field(p, m)
        net = butterfly()
        est = estimate_failure(net, 2, field, "t1", 300, seed=4)
        assert est.failures == naive_mc_failures(net, 2, field, "t1", 300, seed=4)

    def test_gf1024_failures_pinned(self):
        assert estimate_failure(butterfly(), 2, make_field(2, 10), "t1", 2000, seed=1).failures == 7

    def test_workers_clamped_to_units_and_cpus(self, monkeypatch):
        forks = record_forks(monkeypatch)
        monkeypatch.setattr(rlncsim.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        net, f2, b = butterfly(), make_field(2), rlncsim._UNIT_TRIALS
        trials = 2 * b + 1  # three units
        est = estimate_failure(net, 2, f2, "t1", trials, seed=3, workers=1)
        assert forks == []
        # three units on eight CPUs: two forked workers
        assert estimate_failure(net, 2, f2, "t1", trials, seed=3, workers=10**6) == est
        assert len(forks) == 2
        monkeypatch.setattr(rlncsim.os, "sched_getaffinity", lambda pid: {0, 1})
        assert estimate_failure(net, 2, f2, "t1", trials, seed=3, workers=10**6) == est
        assert len(forks) == 3
        # one usable CPU, as under `taskset -c 0`, on a machine of eight: no fork
        monkeypatch.setattr(rlncsim.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(rlncsim.os, "sched_getaffinity", lambda pid: {0})
        assert estimate_failure(net, 2, f2, "t1", trials, seed=3, workers=2) == est
        # without an affinity mask the count is os.cpu_count(), which may be unknown
        monkeypatch.delattr(rlncsim.os, "sched_getaffinity")
        monkeypatch.setattr(rlncsim.os, "cpu_count", lambda: None)
        assert estimate_failure(net, 2, f2, "t1", trials, seed=3, workers=10**6) == est
        assert len(forks) == 3
        # which units each process ran, from the counts the workers pipe
        # back: unit start s counts 1 << s // b in a worker, 0 in the caller
        parent = os.getpid()

        def marking(start, plan):
            assert plan[0] is net and plan[1:5] == (2, f2, 3, trials)  # net, w, field, seed, trials
            return 0 if os.getpid() == parent else 1 << start // b

        monkeypatch.setattr(rlncsim, "_unit_failures", marking)
        monkeypatch.setattr(rlncsim.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        assert estimate_failure(net, 2, f2, "t1", trials, seed=3, workers=3).failures == 2 + 4
        monkeypatch.setattr(rlncsim.os, "sched_getaffinity", lambda pid: {0, 1})
        assert estimate_failure(net, 2, f2, "t1", trials, seed=3, workers=3).failures == 2
        assert len(forks) == 6
        assert_reaped(forks)

    def test_caller_error_kills_and_reaps_the_workers(self, monkeypatch):
        # the workers would take a minute; the caller's error ends the call
        # at once and leaves no worker running and no zombie
        forks, parent = record_forks(monkeypatch), os.getpid()

        def failing(start, plan):
            if os.getpid() != parent:
                time.sleep(60)
            raise MemoryError(f"unit {start}")

        monkeypatch.setattr(rlncsim, "_unit_failures", failing)
        monkeypatch.setattr(rlncsim.os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        t0 = time.monotonic()
        with pytest.raises(MemoryError, match="unit 0"):
            estimate_failure(butterfly(), 2, make_field(2), "t1", 4 * rlncsim._UNIT_TRIALS, seed=1, workers=4)
        assert time.monotonic() - t0 < 30
        assert len(forks) == 3
        assert_reaped(forks)

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        forks, parent = record_forks(monkeypatch), os.getpid()

        def failing(start, plan):
            if os.getpid() != parent:
                raise ValueError(f"bad unit {start}")
            return 0

        monkeypatch.setattr(rlncsim, "_unit_failures", failing)
        monkeypatch.setattr(rlncsim.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        with pytest.raises(ValueError, match=f"^bad unit {rlncsim._UNIT_TRIALS}$"):
            estimate_failure(butterfly(), 2, make_field(2), "t1", 2 * rlncsim._UNIT_TRIALS, seed=1, workers=2)
        assert len(forks) == 1
        assert_reaped(forks)

    def test_killed_worker_is_an_error_not_a_count(self, monkeypatch):
        forks, parent = record_forks(monkeypatch), os.getpid()

        def dying(start, plan):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return 0

        monkeypatch.setattr(rlncsim, "_unit_failures", dying)
        monkeypatch.setattr(rlncsim.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        with pytest.raises(ChildProcessError, match=f"sent no result, waitpid status {signal.SIGKILL}$"):
            estimate_failure(butterfly(), 2, make_field(2), "t1", 2 * rlncsim._UNIT_TRIALS, seed=1, workers=2)
        assert len(forks) == 1
        assert_reaped(forks)

    def test_serial_without_fork(self, monkeypatch):
        ran, unit = [], rlncsim._unit_failures

        def recording(start, plan):
            ran.append(start)  # in the caller only: a worker appends to its own copy
            return unit(start, plan)

        monkeypatch.setattr(rlncsim, "_unit_failures", recording)
        monkeypatch.setattr(rlncsim.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        net, f2, b = butterfly(), make_field(2), rlncsim._UNIT_TRIALS
        est = estimate_failure(net, 2, f2, "t1", 2 * b + 1, seed=3, workers=2)
        assert ran == [0, 2 * b]  # the caller's share; a worker ran b
        monkeypatch.delattr(rlncsim.os, "fork")
        assert estimate_failure(net, 2, f2, "t1", 2 * b + 1, seed=3, workers=2) == est
        assert ran == [0, 2 * b, 0, b, 2 * b]

    def test_unit_memory_bounded_by_bytes(self, monkeypatch):
        # N = 2,928 slots, 403 live channels and 26 columns at the widest:
        # 2,000 trials in one batch would take about 25 MB at 12,408 B per
        # trial.  With 4 MiB units the traced peak stays under 4 MiB
        # plus 1 MiB of slack for what the budget leaves out: the draw's
        # fixed hashing scratch, index lists and Python objects
        net, f2 = random_dag(40, 4, 0.5, seed=1), make_field(2)
        assert coefficient_count(net, 4) == 2928
        whole = estimate_failure(net, 4, f2, "t", 2000, seed=1)
        monkeypatch.setattr(rlncsim, "_UNIT_BYTES", 4 << 20)
        tracemalloc.start()
        try:
            part = estimate_failure(net, 4, f2, "t", 2000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (4 << 20) + (1 << 20)
        assert part == whole

    def test_gf2_unit_memory_counts_the_packing_mask(self, monkeypatch):
        # at q = 2 the draw is hashed straight into packed bytes, through a
        # chunk-sized bool mask in the draw's own scratch, so a trial holds
        # one bit a coefficient, kernel entry and temporary.  Here N = 31,117
        # slots, all live; the traced peak is about 2.2 MiB, inside the budget
        # itself (an N-byte mask a trial once took it to 5.4 MiB)
        net, f2 = random_dag(60, 2, 0.9, seed=1), make_field(2)
        assert coefficient_count(net, 2) == 31117
        whole = estimate_failure(net, 2, f2, "t", 300, seed=1)
        monkeypatch.setattr(rlncsim, "_UNIT_BYTES", 4 << 20)
        tracemalloc.start()
        try:
            part = estimate_failure(net, 2, f2, "t", 300, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
        assert part == whole

    def test_unit_memory_frees_each_draw_before_the_next(self, monkeypatch):
        # at q = 3 the uint16 draw of N = 31,117 slots is most of a unit;
        # held while the next one is drawn, the traced peak here was 15.7 MiB
        net, f3 = random_dag(60, 2, 0.9, seed=1), make_field(3)
        whole = estimate_failure(net, 2, f3, "t", 300, seed=1)
        monkeypatch.setattr(rlncsim, "_UNIT_BYTES", 8 << 20)
        tracemalloc.start()
        try:
            part = estimate_failure(net, 2, f3, "t", 300, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (8 << 20) + (1 << 20)
        assert part == whole

    def test_odd_q_unit_draws_only_live_slots(self):
        # at q = 3 the draw holds the live slots' rows alone, as at q = 4, at
        # 2 B a live slot a trial; drawing all N rows and keeping the live
        # ones after took the traced peak at the default budget to 35.9 MiB
        net, f3 = random_dag(60, 2, 0.9, seed=1), make_field(3)
        tracemalloc.start()
        try:
            estimate_failure(net, 2, f3, "t", 300, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 << 20

    def test_unit_memory_counts_the_draws_column_scratch(self, monkeypatch):
        # at q = 3 a draw of N = 31,117 slots hashes through three uint64
        # arrays of N words, 0.75 MB; left out of the budget, the draw's
        # scratch took the traced peak to 4.91 MiB (3.57 MiB counted)
        net, f3 = random_dag(60, 2, 0.9, seed=1), make_field(3)
        whole = estimate_failure(net, 2, f3, "t", 300, seed=1)
        monkeypatch.setattr(rlncsim, "_UNIT_BYTES", 4 << 20)
        tracemalloc.start()
        try:
            part = estimate_failure(net, 2, f3, "t", 300, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (4 << 20) + (1 << 18)
        assert part == whole

    def test_unit_memory_counts_field_temporaries(self, monkeypatch):
        # w = 10 over GF(9) on N = 140 slots: the draw and kernels take 540 B
        # a trial, the field operations' int32 and intp temporaries on up to
        # 10 x 13 matrices several times that.  Counted, a 1 MiB budget keeps
        # the peak near 0.6 MiB; left out, the peak was 4.5 MiB
        net, f9 = random_dag(6, 10, 0.6, seed=1), make_field_of_order(9)
        whole = estimate_failure(net, 10, f9, "t", 3000, seed=1)
        monkeypatch.setattr(rlncsim, "_UNIT_BYTES", 1 << 20)
        tracemalloc.start()
        try:
            part = estimate_failure(net, 10, f9, "t", 3000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (1 << 20) + (1 << 20)
        assert part == whole

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_unit_size_does_not_change_counts(self, monkeypatch, q):
        # dag12 fails often; 10,000 B less 24 B a slot for the draw is 6
        # trials of about 1,180 B at q = 3 and 4, so 1,001 trials end in a
        # unit of 5.  At q = 2 a trial takes 74 B, a bit an entry: 9 units
        # of 107 trials, each ending in a byte with padding bits, then one
        # of 38.  The units spread over the workers like 2^14-trial ones:
        # below 2^14 trials, memory-bound units still fork
        forks = record_forks(monkeypatch)
        monkeypatch.setattr(rlncsim.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        net, field = random_dag(12, 4, 0.5, seed=5), make_field_of_order(q)
        whole = estimate_failure(net, 4, field, "t", 1001, seed=2)
        monkeypatch.setattr(rlncsim, "_UNIT_BYTES", 10_000)
        for workers in (1, 2, 3):
            before = len(forks)
            assert estimate_failure(net, 4, field, "t", 1001, seed=2, workers=workers) == whole
            assert len(forks) - before == workers - 1
        assert 0 < whole.failures < whole.trials
        assert_reaped(forks)

    def test_trial_above_unit_bytes_refused_before_draw_or_fork(self, monkeypatch):
        # the draw's 24 B a slot and one trial's bytes must fit in a unit;
        # when they do not, ValueError names N, the trial's bytes and the
        # unit, and nothing is drawn or forked
        def never(*args, **kwargs):
            raise AssertionError("drew or forked after the plan")

        net, f3 = butterfly(), make_field(3)
        n = coefficient_count(net, 2)
        monkeypatch.setattr(rlncsim, "uniform_columns", never)
        monkeypatch.setattr(rlncsim.os, "fork", never)
        monkeypatch.setattr(rlncsim, "_UNIT_BYTES", 24 * n)
        with pytest.raises(ValueError, match=rf"^N = {n} coefficient slots: 24 B a slot and "
                                             rf"(\d+) B for one trial exceed the unit's {24 * n} B$") as err:
            estimate_failure(net, 2, f3, "t1", 1000, seed=1, workers=2)
        per_trial = int(err.value.args[0].split(" and ")[1].split()[0])
        monkeypatch.setattr(rlncsim, "_UNIT_BYTES", 24 * n + per_trial - 1)
        with pytest.raises(ValueError, match=f"{per_trial} B for one trial"):
            estimate_failure(net, 2, f3, "t1", 1000, seed=1, workers=2)
        # exactly one trial's room: units of one trial, the same count
        monkeypatch.undo()
        whole = estimate_failure(net, 2, f3, "t1", 200, seed=1)
        monkeypatch.setattr(rlncsim, "_UNIT_BYTES", 24 * n + per_trial)
        assert estimate_failure(net, 2, f3, "t1", 200, seed=1) == whole

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

    def test_trials_above_max_rejected_before_drawing(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew coefficients for a run that should be refused")

        monkeypatch.setattr(rlncsim, "uniform_columns", no_draw)
        assert rlncsim.MAX_TRIALS == 1 << 32
        with pytest.raises(ValueError, match=r"trials must be in 1\.\.4294967296, got 4294967297"):
            estimate_failure(butterfly(), 2, make_field(2), "t1", (1 << 32) + 1, seed=1)


@pytest.mark.parametrize("evaluate, bad, message", [
    (estimate_failure, dict(w=0), "rate must be >= 1, got 0"),
    (exact_failure, dict(w=0), "rate must be >= 1, got 0"),
    (estimate_failure, dict(workers=0), "workers must be >= 1, got 0"),
    (estimate_failure, dict(workers=-3), "workers must be >= 1, got -3"),
    (exact_failure, dict(budget=0), "budget must be >= 1, got 0"),
    (exact_failure, dict(budget=-5), "budget must be >= 1, got -5"),
], ids=["estimate-rate-0", "exact-rate-0", "workers-0", "workers-negative", "budget-0", "budget-negative"])
def test_evaluators_check_their_inputs(monkeypatch, evaluate, bad, message):
    # a rate of 0 once counted no failure in the Monte Carlo and divided by
    # zero in the DP; 0 workers failed in numpy, and -3 ran serially
    forks = record_forks(monkeypatch)
    monkeypatch.setattr(rlncsim.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    args = dict(net=butterfly(), w=2, field=make_field(2), t="t1")
    if evaluate is estimate_failure:
        args.update(trials=4 * rlncsim._UNIT_TRIALS, seed=1)
    with pytest.raises(ValueError, match=f"^{message}$"):
        evaluate(**{**args, **bad})
    assert forks == []


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

        monkeypatch.setattr(rlncsim, "_eliminate", no_expansion)
        with pytest.raises(EnumerationBudgetError) as err:
            exact_failure(plait(4, 1), 4, make_field(2, 4), "t")
        assert err.value.branches == 16**16
        assert err.value.budget == DEFAULT_ENUMERATION_BUDGET
        assert str(err.value) == (
            f"exact evaluation needs {16**16} branches up to node s, "
            f"above the budget {DEFAULT_ENUMERATION_BUDGET}"
        )

    def test_budget_above_2_62_raises_before_any_work(self, monkeypatch):
        # the DP's branch indices are int64
        def no_work(*args):
            raise AssertionError("work started before the budget was checked")

        monkeypatch.setattr(rlncsim, "_eliminate", no_work)
        with pytest.raises(ValueError, match=r"budget must be at most 2\^62, got 4611686018427387905"):
            exact_failure(butterfly(), 2, make_field(2), "t1", budget=(1 << 62) + 1)
        monkeypatch.undo()
        assert exact_failure(butterfly(), 2, make_field(2), "t1", budget=1 << 62).failures == 4000

    def test_custom_budget(self):
        # butterfly t1 over GF(2) takes 16 + 4 + 6 + 10 + 2 branches at s, u1, u2, b1, b2
        with pytest.raises(EnumerationBudgetError) as err:
            exact_failure(butterfly(), 2, make_field(2), "t1", budget=37)
        assert (err.value.branches, err.value.budget) == (38, 37)
        assert "up to node b2" in str(err.value)
        with pytest.raises(EnumerationBudgetError, match="needs 20 branches up to node u1"):
            exact_failure(butterfly(), 2, make_field(2), "t1", budget=19)
        assert exact_failure(butterfly(), 2, make_field(2), "t1", budget=38).failures == 4000

    def test_gf3_matches_enumeration(self):
        f3 = make_field(3)
        net = plait(2, 1)
        fast = exact_failure(net, 2, f3, "t")
        assert fast.failures == naive_enumerated_failures(net, 2, f3, "t")

    def test_gf512_single_channel_is_exact(self):
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

    @pytest.mark.parametrize("net,w,q,t,pinned", [
        (butterfly(), 2, 3, "t1", None), (plait(2, 1), 2, 4, "t", None),
        # node i2 holds states whose in-columns have rank 0, 1 and 2
        (random_dag(2, 2, 0.5, seed=3), 2, 2, "t", 640),
        (random_dag(2, 2, 0.5, seed=3), 2, 3, "t", 19305),
    ], ids=["butterfly-q3", "plait21-q4", "random2-q2", "random2-q3"])
    def test_small_branch_batches_split_states(self, monkeypatch, net, w, q, t, pinned):
        # batches of a few matrices end in the middle of a state's branches
        field = make_field_of_order(q)
        whole = exact_failure(net, w, field, t)
        sizes, eliminate = [], rlncsim._eliminate

        def recorded(M, field):
            sizes.append(M.shape[2])
            return eliminate(M, field)

        monkeypatch.setattr(rlncsim, "_eliminate", recorded)
        monkeypatch.setattr(rlncsim, "_BRANCH_BATCH", 20)
        small = exact_failure(net, w, field, t)
        assert max(sizes) <= 5
        # the source's one state (rank w) owns q^(w*b) branches, b its live
        # out-channels, so its branches span several batches
        reach, src = net.reaching(net.index[t]), net.index[net.source]
        assert q ** (w * sum(bool(reach[net.head[j]]) for j in net.outs[src])) > 5
        # every branch is reduced exactly once
        monkeypatch.undo()
        exact_failure(net, w, field, t, budget=sum(sizes))
        with pytest.raises(EnumerationBudgetError):
            exact_failure(net, w, field, t, budget=sum(sizes) - 1)
        assert (small.failures, small.fraction) == (whole.failures, whole.fraction)
        assert small.failures == enumerated_failures(net, w, field, t)
        assert pinned in (None, small.failures)

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
        assert exact == full_report(butterfly(), "t1", 2).bounds(q)["thm1"] == butterfly_failure_law(q)
        assert elapsed < 1.0, f"q={q} took {elapsed:.2f}s"

    @pytest.mark.parametrize("q", [2, 3])
    def test_plait_3_2_equals_every_upper_bound(self, q):
        field = make_field_of_order(q)
        exact = exact_failure(plait(3, 2), 3, field, "t").fraction
        b = full_report(plait(3, 2), "t", 3).bounds(q)
        assert exact == b["thm1"] == b["thm2"] == b["thm3"] == plait_failure_law(q, 3, 2)

    @pytest.mark.parametrize("q", [2, 3])
    def test_frontier_kept_in_head_order(self, q):
        # s sends e1 to the pending head t before e2 to b, and b's two
        # parallel channels to u precede it too.  Appended unsorted, t's
        # column would lead at b, and at u a column that is not u's
        net = Network(
            {"s": "source", "b": "internal", "u": "internal", "t": "sink"},
            [Channel("e1", "s", "t"), Channel("e2", "s", "b"), Channel("e3", "b", "u"),
             Channel("e4", "b", "u"), Channel("e5", "u", "t")],
        )
        field = make_field_of_order(q)
        res = exact_failure(net, 2, field, "t")
        assert res.assignments == q**8
        assert res.failures == enumerated_failures(net, 2, field, "t")
        assert res.failures == naive_enumerated_failures(net, 2, field, "t")

    @pytest.mark.parametrize("q", [2, 3])
    def test_node_without_in_channel_feeding_a_live_node(self, q):
        # x has no in-channel: its slot-free out-channel e2 carries zero
        # kernels into v, in the DP and in the Monte Carlo's propagation
        net = Network(
            {"s": "source", "v": "internal", "x": "internal", "t": "sink"},
            [Channel("e1", "s", "v"), Channel("e2", "x", "v"), Channel("e3", "v", "t"),
             Channel("e4", "s", "t")],
        )
        field = make_field_of_order(q)
        res = exact_failure(net, 2, field, "t")
        assert res.failures == enumerated_failures(net, 2, field, "t")
        assert 0 < res.failures < res.assignments
        est = estimate_failure(net, 2, field, "t", 500, seed=4)
        assert est.failures == naive_mc_failures(net, 2, field, "t", 500, seed=4)

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
