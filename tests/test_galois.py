"""Field construction, arithmetic axioms, and uniform sampling."""

import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import NaiveField, field_pow
from rlncfail.galois import (
    FieldSpec,
    RandomStream,
    make_field,
    make_field_of_order,
    parse_prime_power,
    uniform_int,
)


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
        pairs = [(x, y) for x in range(a.q) for y in range(a.q)]
        assert [a.mul(x, y) for x, y in pairs] == [b.mul(x, y) for x, y in pairs]
        assert [a.add(x, y) for x, y in pairs] == [b.add(x, y) for x, y in pairs]

    def test_pickles_to_the_cached_field(self):
        f = make_field(3, 10)
        f.mul(2, 3)  # tables built; they are not shipped
        assert pickle.loads(pickle.dumps(f)) is f
        assert pickle.loads(pickle.dumps(FieldSpec(2, 3))) is make_field(2, 3)
        assert len(pickle.dumps(f)) < 200

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            make_field(4, 1)
        with pytest.raises(ValueError):
            make_field(6, 2)
        with pytest.raises(ValueError):
            make_field(2, 17)  # 2^17 > 2^16
        with pytest.raises(ValueError):
            make_field(2, 0)

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
        assert f.add(1, 1) == 0

    def test_gf4_x_times_x(self):
        # residue x is the packed value 2; x*x = x + 1 which packs to 3
        f = make_field(2, 2)
        assert f.mul(2, 2) == 3

    def test_gf5_inverse(self):
        f = make_field(5)
        assert f.inv(3) == 2

    def test_inverse_of_zero_rejected(self):
        for f in (make_field(2), make_field(3, 2)):
            with pytest.raises(ZeroDivisionError):
                f.inv(0)

    @pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4)])
    def test_axioms_exhaustive_small(self, p, m):
        f = make_field(p, m)
        q = f.q
        els = range(q)
        for a in els:
            for b in els:
                assert f.add(a, b) == f.add(b, a)
                assert f.mul(a, b) == f.mul(b, a)
                assert f.sub(a, b) == f.add(a, f.neg(b))
                for c in els:
                    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))

    @pytest.mark.parametrize("p,m", [(251, 1), (2, 9), (3, 5), (13, 2)])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_axioms_sampled_large(self, p, m, data):
        f = make_field(p, m)
        a = data.draw(st.integers(0, f.q - 1))
        b = data.draw(st.integers(0, f.q - 1))
        c = data.draw(st.integers(0, f.q - 1))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1

    @pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (2, 4), (11, 1), (2, 8), (251, 1)])
    def test_multiplicative_group_order(self, p, m):
        f = make_field(p, m)
        for a in range(1, f.q):
            assert field_pow(f, a, f.q - 1) == 1
            assert f.inv(f.inv(a)) == a


class TestAgainstNaiveOracle:
    @pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 27, 256, 729, 1024, 59049, 65521, 65536])
    def test_ops_match_schoolbook_arithmetic(self, q):
        f = make_field_of_order(q)
        naive = NaiveField(f)
        rng = RandomStream(q)
        values = sorted({0, 1, q - 1} | {uniform_int(q, rng) for _ in range(9)})
        for a in values:
            for b in values:
                assert f.add(a, b) == naive.add(a, b), (a, b)
                assert f.sub(a, b) == naive.sub(a, b), (a, b)
                assert f.mul(a, b) == naive.mul(a, b), (a, b)
            assert f.neg(a) == naive.sub(0, a)
            if a:
                assert naive.mul(a, f.inv(a)) == 1
                if q <= 1024:
                    assert f.inv(a) == naive.inv(a)

    @pytest.mark.parametrize("q", [243, 1024])
    def test_oracle_takes_numpy_scalars(self, q):
        # elements read from an engine array are np.uint16, whose products
        # wrap; the oracle must compute in Python ints all the same
        f = make_field_of_order(q)
        naive = NaiveField(f)
        rng = RandomStream(q)
        values = np.array([uniform_int(q, rng) for _ in range(40)] + [0, 1, q - 1], np.uint16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a in values:
                for b in values:
                    x, y = int(a), int(b)
                    assert naive.add(a, b) == f.add(x, y), (x, y)
                    assert naive.sub(a, b) == f.sub(x, y), (x, y)
                    assert naive.mul(a, b) == f.mul(x, y), (x, y)

    @pytest.mark.parametrize("q", [9, 243, 65521])
    def test_array_ops_match_scalar_ops(self, q):
        f = make_field_of_order(q)
        rng = RandomStream(7)
        # uint16 is the engine's own element dtype, where a + b would wrap
        a = np.array([uniform_int(q, rng) for _ in range(64)] + [0, 1, q - 1, 0], np.uint16)
        b = np.array([uniform_int(q, rng) for _ in range(64)] + [0, q - 1, 1, q - 1], np.uint16)
        for vec, scalar in [(f.vadd, f.add), (f.vsub, f.sub), (f.vmul, f.mul)]:
            assert list(vec(a, b)) == [scalar(int(x), int(y)) for x, y in zip(a, b)]
        nz = a[a != 0]
        assert list(f.vinv(nz)) == [f.inv(int(x)) for x in nz]
        assert list(f.vneg(a)) == [f.neg(int(x)) for x in a]


class TestSampling:
    def test_support_binary(self):
        f = make_field(2)
        rng = RandomStream(0)
        assert {uniform_int(f.q, rng) for _ in range(64)} == {0, 1}

    def test_frequency_within_4_sigma(self):
        # 3e5 draws over F_3: binomial sigma = sqrt(N * (1/3)(2/3)) ~= 258.2
        n = 300_000
        sigma = math.sqrt(n * (1 / 3) * (2 / 3))
        rng = RandomStream(2024)
        counts = [0, 0, 0]
        for _ in range(n):
            counts[uniform_int(3, rng)] += 1
        for c in counts:
            assert abs(c - n / 3) <= 4 * sigma

    def test_fixed_seed_repeats(self):
        f = make_field(7)
        draws = lambda: [uniform_int(f.q, RandomStream(99, stream=s)) for s in range(20)]
        assert draws() == draws()
        a = RandomStream(5)
        b = RandomStream(5)
        assert [uniform_int(7, a) for _ in range(50)] == [uniform_int(7, b) for _ in range(50)]

    def test_distinct_streams_differ(self):
        seqs = set()
        for s in range(8):
            rng = RandomStream(1, stream=s)
            seqs.add(tuple(uniform_int(1 << 16, rng) for _ in range(8)))
        assert len(seqs) == 8

    @given(q=st.integers(2, 1 << 16), seed=st.integers(-(2**63), 2**63 - 1))
    @settings(max_examples=60, deadline=None)
    def test_draws_always_in_range(self, q, seed):
        rng = RandomStream(seed)
        for _ in range(8):
            assert 0 <= uniform_int(q, rng) < q
