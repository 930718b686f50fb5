"""Field construction, arithmetic axioms, and uniform sampling."""

import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rlncfail.galois as galois
from oracles import NaiveField, RandomStream, field_pow, uniform_int
from rlncfail.galois import (
    FieldSpec,
    make_field,
    make_field_of_order,
    parse_prime_power,
    uniform_columns,
)
from rlncfail.netmodel import random_dag


def smallest_irreducible_quadratic_oracle(p: int) -> tuple[int, ...]:
    """Independent oracle: a monic quadratic over F_p is irreducible iff it
    has no root; scan candidates from the constant coefficient upward."""
    for c0 in range(p):
        for c1 in range(p):
            if all((x * x + c1 * x + c0) % p != 0 for x in range(p)):
                return (c0, c1, 1)
    raise AssertionError("no irreducible quadratic found")


class TestMakeField:
    def test_prime_field(self):
        f = make_field(2, 1)
        assert (f.p, f.m, f.q) == (2, 1, 2)
        assert f.reduction_poly is None

    def test_gf4_poly_is_unique_quadratic(self):
        assert make_field(2, 2).reduction_poly == (1, 1, 1)  # x^2 + x + 1

    def test_gf9_poly_matches_enumeration_oracle(self):
        assert make_field(3, 2).reduction_poly == smallest_irreducible_quadratic_oracle(3)
        assert make_field(3, 2).reduction_poly == (1, 0, 1)  # x^2 + 1

    def test_deterministic_tables(self):
        a = FieldSpec(2, 3)
        b = FieldSpec(2, 3)
        assert a.reduction_poly == b.reduction_poly
        x, y = np.arange(a.q)[:, None], np.arange(a.q)[None, :]
        assert (a.vmul(x, y) == b.vmul(x, y)).all()
        assert (a.vadd(x, y) == b.vadd(x, y)).all()

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            make_field(4, 1)
        with pytest.raises(ValueError):
            make_field(6, 2)
        with pytest.raises(ValueError):
            make_field(2, 17)  # 2^17 > 2^16
        with pytest.raises(ValueError):
            make_field(2, 0)

    @pytest.mark.parametrize("p,m", [(2**61 - 1, 1), (3, 10**7)])
    def test_sizes_checked_before_any_work(self, monkeypatch, p, m):
        # factoring 2^61 - 1 by trial division, or computing 3^(10^7), would
        # take seconds to hours before the order was ever compared
        def never(n):
            raise AssertionError(f"factored {n} before checking the order")

        monkeypatch.setattr(galois, "_prime_factors", never)
        with pytest.raises(ValueError, match="exceeds the supported maximum"):
            make_field(p, m)

    def test_order_cap_inclusive(self):
        assert make_field(2, 16).q == 1 << 16

    def test_parse_prime_power(self):
        assert parse_prime_power(8) == (2, 3)
        assert parse_prime_power(9) == (3, 2)
        assert parse_prime_power(7) == (7, 1)
        assert parse_prime_power(65536) == (2, 16)
        for bad in (1, 6, 12, 100):
            with pytest.raises(ValueError):
                parse_prime_power(bad)

    def test_make_field_of_order(self):
        assert make_field_of_order(8) is make_field(2, 3)


class TestArithmetic:
    def test_characteristic_two(self):
        f = make_field(2)
        assert f.vadd(1, 1) == 0

    def test_gf4_x_times_x(self):
        # residue x is the packed value 2; x*x = x + 1 which packs to 3
        f = make_field(2, 2)
        assert f.vmul(2, 2) == 3

    def test_gf5_inverse(self):
        f = make_field(5)
        assert f.vinv(3) == 2

    @pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4)])
    def test_axioms_exhaustive_small(self, p, m):
        f = make_field(p, m)
        els = np.arange(f.q)
        a, b, c = els[:, None, None], els[None, :, None], els[None, None, :]
        add, mul = f.vadd, f.vmul
        assert (add(a, b) == add(b, a)).all()
        assert (mul(a, b) == mul(b, a)).all()
        assert (add(add(a, f.vneg(b)), b) == a).all()
        assert (add(add(a, b), c) == add(a, add(b, c))).all()
        assert (mul(mul(a, b), c) == mul(a, mul(b, c))).all()
        assert (mul(a, add(b, c)) == add(mul(a, b), mul(a, c))).all()

    @pytest.mark.parametrize("p,m", [(251, 1), (2, 9), (3, 5), (13, 2)])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_axioms_sampled_large(self, p, m, data):
        f = make_field(p, m)
        a = data.draw(st.integers(0, f.q - 1))
        b = data.draw(st.integers(0, f.q - 1))
        c = data.draw(st.integers(0, f.q - 1))
        add, mul = f.vadd, f.vmul
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert add(a, f.vneg(a)) == 0
        if a:
            assert mul(a, f.vinv(a)) == 1

    @pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (2, 4), (11, 1), (2, 8), (251, 1)])
    def test_multiplicative_group_order(self, p, m):
        f = make_field(p, m)
        for a in range(1, f.q):
            assert field_pow(f, a, f.q - 1) == 1
        nonzero = np.arange(1, f.q)
        assert (f.vinv(f.vinv(nonzero)) == nonzero).all()


class TestAgainstNaiveOracle:
    def test_tables_of_every_order_up_to_1024(self):
        # every prime power, so the odd-characteristic extension fields
        # (25, 49, 125, 343, 625, ...) are covered too
        orders = []
        for q in range(2, 1025):
            try:
                orders.append(parse_prime_power(q))
            except ValueError:
                pass
        assert len(orders) == 198
        for p, m in orders:
            f = make_field(p, m)
            naive, (exp, log), n = NaiveField(f), f._tables, f.q - 1
            assert sorted(exp[:n].tolist()) == list(range(1, f.q)), f
            assert (exp[n : 2 * n] == exp[:n]).all(), f
            assert (log[exp[:n]] == np.arange(n)).all(), f
            assert log[0] == 2 * n and not exp[2 * n :].any(), f
            g = int(exp[1])
            assert [naive.mul(x, g) for x in exp[:n].tolist()] == exp[1 : n + 1].tolist(), f

    @pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 27, 256, 729, 1024, 59049, 65521, 65536])
    def test_ops_match_schoolbook_arithmetic(self, q):
        f = make_field_of_order(q)
        naive = NaiveField(f)
        draws = uniform_columns(q, q, [0], 9)[:, 0].tolist() if q > 2 else []  # q = 2 comes packed
        values = sorted({0, 1, q - 1} | set(draws))
        for a in values:
            for b in values:
                assert f.vadd(a, b) == naive.add(a, b), (a, b)
                assert f.vadd(a, f.vneg(b)) == naive.sub(a, b), (a, b)
                assert f.vmul(a, b) == naive.mul(a, b), (a, b)
            assert f.vneg(a) == naive.sub(0, a)
            if a:
                assert naive.mul(a, int(f.vinv(a))) == 1
                if q <= 1024:
                    assert f.vinv(a) == naive.inv(a)

    @pytest.mark.parametrize("q", [243, 1024])
    def test_oracle_takes_numpy_scalars(self, q):
        # elements read from an engine array are np.uint16, whose products
        # wrap; the oracle must compute in Python ints all the same
        f = make_field_of_order(q)
        naive = NaiveField(f)
        values = np.array(uniform_columns(q, q, [0], 40)[:, 0].tolist() + [0, 1, q - 1], np.uint16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a in values:
                for b in values:
                    x, y = int(a), int(b)
                    assert naive.add(a, b) == f.vadd(x, y), (x, y)
                    assert naive.sub(a, b) == f.vadd(x, f.vneg(y)), (x, y)
                    assert naive.mul(a, b) == f.vmul(x, y), (x, y)

    @pytest.mark.parametrize("q", [9, 243, 65521])
    def test_array_ops_match_scalar_ops(self, q):
        f = make_field_of_order(q)
        naive = NaiveField(f)
        a, b = uniform_columns(q, 7, [0, 1], 64).T
        # uint16 is the engine's own element dtype, where a + b would wrap
        a = np.array(a.tolist() + [0, 1, q - 1, 0], np.uint16)
        b = np.array(b.tolist() + [0, q - 1, 1, q - 1], np.uint16)

        def sub(x, y):
            return f.vadd(x, f.vneg(y))

        for vec, scalar in [(f.vadd, naive.add), (sub, naive.sub), (f.vmul, naive.mul)]:
            assert vec(a, b).tolist() == [scalar(x, y) for x, y in zip(a, b)]
        nz = a[a != 0]
        assert [naive.mul(x, y) for x, y in zip(nz, f.vinv(nz))] == [1] * len(nz)
        assert f.vneg(a).tolist() == [naive.sub(0, x) for x in a]

    @pytest.mark.parametrize("q", [3, 5, 7, 65521])
    def test_prime_vadd_by_one_correction(self, q):
        # a prime field adds in the inputs' own dtype, with no % p: every
        # pair at small q, and at 65521 sampled pairs, many of whose uint16
        # sums wrap
        f, naive = make_field(q), NaiveField(make_field(q))
        values = list(range(q)) if q < 10 else sorted(
            {0, 1, q // 2, q // 2 + 1, q - 2, q - 1} | set(uniform_columns(q, 5, [0], 30)[:, 0].tolist()))
        pairs = [(a, b) for a in values for b in values]
        a, b = (np.array(x) for x in zip(*pairs))
        for dtype in (np.uint16, np.int32, np.int64):
            got = f.vadd(a.astype(dtype), b.astype(dtype))
            assert got.dtype == dtype
            assert got.tolist() == [naive.add(x, y) for x, y in pairs]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy scalars must not overflow
            for x, y in pairs[:: max(1, len(pairs) // 50)]:
                assert f.vadd(np.uint16(x), np.uint16(y)) == f.vadd(x, np.uint16(y)) == naive.add(x, y)

    def test_gf2_bit_operations_match_oracle(self):
        # q = 2 multiplies by AND and inverts by the identity, with no tables;
        # every pair of {0, 1}, as Python ints and as the engine's integer dtypes
        f, naive = FieldSpec(2, 1), NaiveField(make_field(2))
        pairs = [(a, b) for a in (0, 1) for b in (0, 1)]
        for a, b in pairs:
            assert f.vadd(a, b) == naive.add(a, b)
            assert f.vadd(a, f.vneg(b)) == naive.sub(a, b)
            assert f.vmul(a, b) == naive.mul(a, b)
        assert f.vinv(1) == naive.inv(1) and f.vinv(0) == 0
        a, b = (np.array(x) for x in zip(*pairs))

        def sub(x, y):
            return f.vadd(x, f.vneg(y))

        for dtype in (np.uint16, np.int32, np.int64):
            x, y = a.astype(dtype), b.astype(dtype)
            for vec, scalar in [(f.vadd, naive.add), (sub, naive.sub), (f.vmul, naive.mul)]:
                got = vec(x, y)
                assert got.dtype == dtype
                assert got.tolist() == [scalar(u, v) for u, v in pairs]
            assert f.vinv(x).dtype == dtype and f.vinv(x).tolist() == a.tolist()
        assert "_tables" not in vars(f)  # never built at q = 2


def oracle_rows(q, seed, streams, n):
    """uniform_columns one draw at a time, one row per stream, and the words
    each stream rejected."""
    rows, rejected = [], []
    for s in streams:
        rng = RandomStream(seed, stream=s)
        rows.append([uniform_int(q, rng) for _ in range(n)])
        rejected.append(rng.counter - n)
    return rows, rejected


class TestSampling:
    def test_support_binary(self):
        # q = 2 comes packed: stream i is bit 7 - i % 8 of column i // 8
        draws = uniform_columns(2, 0, [0], 64)
        assert draws.shape == (64, 1) and draws.dtype == np.uint8
        assert set(draws[:, 0].tolist()) == {0, 128}

    def test_frequency_within_4_sigma(self):
        # 3e5 draws over F_3: binomial sigma = sqrt(N * (1/3)(2/3)) ~= 258.2
        n = 300_000
        sigma = math.sqrt(n * (1 / 3) * (2 / 3))
        counts = np.bincount(uniform_columns(3, 2024, [0], n)[:, 0], minlength=3)
        assert counts.sum() == n
        for c in counts:
            assert abs(c - n / 3) <= 4 * sigma

    def test_fixed_seed_repeats(self):
        draws = lambda: uniform_columns(7, 99, range(20), 1)
        assert (draws() == draws()).all()
        assert uniform_columns(7, 5, [0], 50).tolist() == uniform_columns(7, 5, [0], 50).tolist()

    def test_distinct_streams_differ(self):
        seqs = {tuple(col) for col in uniform_columns(1 << 16, 1, range(8), 8).T.tolist()}
        assert len(seqs) == 8

    @given(q=st.integers(2, 1 << 16), seed=st.integers(-(2**63), 2**63 - 1))
    @settings(max_examples=60, deadline=None)
    def test_draws_always_in_range(self, q, seed):
        draws = uniform_columns(q, seed, [0, 1], 8)
        if q == 2:  # two streams packed into the top bits of one byte
            assert draws.shape == (8, 1) and draws.dtype == np.uint8 and not (draws & 63).any()
            draws = np.unpackbits(draws, axis=1, count=2)
        assert draws.shape == (8, 2) and draws.dtype == (np.uint8 if q == 2 else np.uint16)
        assert ((0 <= draws) & (draws < q)).all()

    def test_matches_scalar_stream_where_words_are_rejected(self):
        rows, rejected = oracle_rows(4057, 7, range(4096), 64)
        assert sum(rejected) == 6  # in streams 69, 713, 850, 1710, 2114, 3163
        assert uniform_columns(4057, 7, range(4096), 64).T.tolist() == rows

    def test_matches_scalar_stream_at_any_start(self):
        rows, rejected = oracle_rows(3, 7, range(2100, 2130), 64)
        assert rejected[2114 - 2100] == 1 and sum(rejected) == 1
        assert uniform_columns(3, 7, np.arange(2100, 2130), 64).T.tolist() == rows

    @pytest.mark.parametrize(
        "q,n",
        # powers of two reduce by a mask and never reject; the others use % and may
        # q <= 2^15 keeps at most 31 bits of a word and skips the hash's last step
        [(2, 1), (4, 9), (1024, 5), (1 << 15, 4), (1 << 16, 3), (1 << 32, 40), (3, 11), (5, 17),
         (9, 6), (65521, 3)],
    )
    def test_matches_scalar_stream(self, q, n):
        for seed in (0, -1, 2**64 + 5):
            rows, _ = oracle_rows(q, seed, [0, 1, 999], n)
            draws = uniform_columns(q, seed, [0, 1, 999], n)
            assert draws.dtype == (np.uint8 if q == 2 else np.uint16 if q <= 1 << 16 else np.uint64)
            if q == 2:
                draws = np.unpackbits(draws, axis=1, count=3)
            assert draws.T.tolist() == rows

    @pytest.mark.parametrize(
        "streams,n,chunk_words",
        # a partial last byte; streams that do not start at 0; groups of 8
        # streams in bands of 4 rows, and one group of 9 streams (16 wide)
        # in bands of 2,047 rows
        [(range(13), 20, None), (range(1005, 1031), 7, None), (range(20), 23, 40), (range(9), 4100, None)],
    )
    def test_gf2_packed_as_hashed(self, monkeypatch, streams, n, chunk_words):
        rows, _ = oracle_rows(2, 3, streams, n)
        if chunk_words:
            monkeypatch.setattr(galois, "_CHUNK_WORDS", chunk_words)
        draws = uniform_columns(2, 3, streams, n)
        assert draws.dtype == np.uint8
        assert (draws == np.packbits(np.array(rows, dtype=np.uint8).T, axis=1)).all()

    @pytest.mark.parametrize("q", [2, 4, 1024, 3])
    def test_groups_and_bands_match_the_oracle(self, monkeypatch, q):
        # 256 words a pass: at a power of two, groups of 32 streams in bands
        # of 7 rows, so 75 streams make two whole groups and one of 11, and
        # 20 rows or 11 gapped positions several bands, the last one short;
        # at q = 3 every row in one band, groups of 12 or 6 streams.  The
        # default ufunc buffer sends these groups through two copies and an
        # add, a 16-element one through the broadcast add
        monkeypatch.setattr(galois, "_CHUNK_WORDS", 256)
        positions = [0, 2, 3, 7, 8, 15, 16, 17, 30, 31, 40]
        for seed in (0, -1, 2**64 + 5):
            full = np.array(oracle_rows(q, seed, range(1000, 1075), 41)[0]).T
            if q == 2:
                full = np.packbits(full.astype(np.uint8), axis=1)
            for streams in (range(1000, 1075), np.arange(1000, 1075)):
                for n, want in ((20, full[:20]), (np.array(positions), full[positions])):
                    for bufsize in (np.getbufsize(), 16):
                        old = np.setbufsize(bufsize)
                        try:
                            draws = uniform_columns(q, seed, streams, n)
                        finally:
                            np.setbufsize(old)
                        assert draws.shape == want.shape and (draws == want).all()

    def test_gf2_band_keeps_the_chunk_buffers(self):
        # 57 streams are one group (64 wide) hashed in bands of 511 rows, so
        # beside the output a draw still holds two chunk buffers and the
        # counter steps, plus a few KiB of small ones (a band's packed bytes);
        # a broadcast add over rows this short would add numpy's 128 KiB of
        # ufunc buffers, and a group of all N words 16 more N-word arrays
        n = 31_117
        uniform_columns(2, 1, range(57), n)
        tracemalloc.start()
        try:
            out = uniform_columns(2, 1, range(57), n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= 8 * n + 2 * 8 * galois._CHUNK_WORDS + 16384

    @pytest.mark.parametrize("q", [2, 4, 1024, 1 << 32, 3, 5])
    def test_positions_draw_only_those_rows(self, q):
        # nothing is rejected at a power of two, where draw c is word c + 1;
        # at 3 and 5 each stream is hashed through the last position
        words = [0, 3, 4, 9, 30]
        full = uniform_columns(q, 5, range(21), 31)
        assert (uniform_columns(q, 5, range(21), np.array(words)) == full[words]).all()
        assert uniform_columns(q, 5, range(21), []).shape == (0, full.shape[1])

    def test_positions_past_a_rejected_word(self):
        # at q = 4057 and seed 7 stream 69 rejects word 62, so draw 61 is word
        # 63: every position from 61 on is read past the rejection
        rows, rejected = oracle_rows(4057, 7, range(60, 80), 64)
        assert rejected[69 - 60] == 1
        full = uniform_columns(4057, 7, range(60, 80), 64)
        assert full.T.tolist() == rows
        for words in ([0, 60, 61, 63], [61], [62, 63], []):
            draws = uniform_columns(4057, 7, range(60, 80), np.array(words, dtype=np.uint64))
            assert draws.shape == (len(words), 20) and (draws == full[words]).all()

    def test_mix64_top_bits_without_its_last_step(self):
        # the last step, x ^= x >> 31, changes only bits 0-32: skipped for
        # top <= 31, it leaves the top bits exact, and it does run at 32
        x = galois._GOLDEN_U64 * np.arange(1, 2001, dtype=np.uint64)
        full = galois._mix64(x.copy())
        for top in (17, 31, 32):
            shift = np.uint64(64 - top)
            assert (galois._mix64(x.copy(), top=top) >> shift == full >> shift).all()
        assert (galois._mix64(x.copy(), top=31) != full).any()

    def test_chunking_invisible(self, monkeypatch):
        whole = uniform_columns(4057, 7, range(4096), 64)
        monkeypatch.setattr(galois, "_CHUNK_WORDS", 1000)  # 15 columns per pass
        assert (uniform_columns(4057, 7, range(4096), 64) == whole).all()
        monkeypatch.setattr(galois, "_CHUNK_WORDS", 1)  # one column per pass
        assert (uniform_columns(4057, 7, range(4096), 64) == whole).all()

    @pytest.mark.parametrize("per_pass", [69, 70, 713, 714])
    def test_rejecting_column_on_a_chunk_boundary(self, monkeypatch, per_pass):
        # streams 69 and 713 reject a word; with 69 or 713 columns per pass
        # they open a pass, with 70 or 714 they close one.  A pass holds the
        # 64 rows and a spare row for the keys
        rows, rejected = oracle_rows(4057, 7, range(1000), 64)
        assert rejected[69] == rejected[713] == 1
        monkeypatch.setattr(galois, "_CHUNK_WORDS", per_pass * 65)
        assert uniform_columns(4057, 7, range(1000), 64).T.tolist() == rows

    def test_random_dag_networks_unchanged(self):
        # channels of 48 networks, digested; pinned when random_dag drew
        # through a row-major draw, before the column layout
        h = hashlib.sha256()
        for seed in [*range(-10, 11), 2**40, -(2**63), 2**64 + 5]:
            for k, w, density in ((6, 3, 0.45), (15, 4, 0.3)):
                net = random_dag(k, w, density, seed=seed)
                h.update(repr([(c.id, c.tail, c.head) for c in net.channels]).encode())
        assert h.hexdigest()[:16] == "9012781de0f25b0b"

    def test_draw_scratch_is_two_chunk_buffers(self):
        # beyond its output a draw holds two chunk-sized uint64 buffers,
        # reused by every band, the keys in a spare row of one, plus a
        # group's stream numbers and numpy's own small temporaries (at most
        # one ufunc buffer); a third chunk-sized array, as when a band was
        # built while the previous one was still bound, exceeds this by
        # about 200 KiB
        uniform_columns(2, 1, range(16384), 85)
        tracemalloc.start()
        try:
            out = uniform_columns(2, 1, range(16384), 85)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= 2 * galois._CHUNK_WORDS * 8 + np.getbufsize() * 8

    def test_column_rejecting_three_words(self):
        # three runs of accepted words slide left before the refill
        rows, rejected = oracle_rows(3, 11, [7], 100_000)
        assert rejected == [3]
        assert uniform_columns(3, 11, [7], 100_000).T.tolist() == rows

    def test_rejecting_draw_scratch_is_the_non_rejecting_level(self):
        # N = 31,117: at q = 3, one column per pass, beside the output a draw
        # holds the two chunk buffers and the counter steps, three N-word
        # uint64 arrays, plus a few KiB of small ones; at q = 4 the buffers
        # are 512 rows of the 57 streams.  At q = 3 six columns reject a
        # word and are redone in place: a copy of one would add N words
        n = 31_117
        for q in (4, 3):
            uniform_columns(q, 1, range(57), n)
            tracemalloc.start()
            try:
                out = uniform_columns(q, 1, range(57), n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - out.nbytes <= 3 * 8 * n + 8192

    def test_non_power_of_two_above_max_order_rejected(self):
        # such a draw's candidates would not fit the 32-bit reduction
        with pytest.raises(ValueError, match="power of two"):
            uniform_columns(galois.MAX_ORDER + 1, 1, [0], 1)

    def test_empty(self):
        assert uniform_columns(5, 1, [], 3).shape == (3, 0)
        assert uniform_columns(5, 1, [0, 1], 0).shape == (0, 2)
