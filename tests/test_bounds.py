"""Exact rational bound formulas and the aggregated report."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    butterfly_failure_law,
    corpus_network,
    corpus_params,
    phi_product,
    plait_failure_law,
    subspace_completion_success,
)
from rlncfail.bounds import BoundReport, full_report, phi
from rlncfail.flowpaths import InfeasibleRateError
from rlncfail.galois import make_field_of_order
from rlncfail.netmodel import butterfly, plait
from rlncfail.rlncsim import exact_failure


class TestPhi:
    def test_empty_product(self):
        assert phi(2, 0) == 1
        assert phi(17, 0) == 1

    def test_hand_values(self):
        assert phi(2, 2) == Fraction(3, 8)     # (1/2)(3/4)
        assert phi(3, 2) == Fraction(16, 27)   # (2/3)(8/9)
        assert phi(2, 1) == Fraction(1, 2)

    @given(q=st.integers(2, 16), n=st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_strictly_decreasing_in_n(self, q, n):
        assert phi(q, n + 1) < phi(q, n)

    @given(q=st.integers(2, 16), n=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_strictly_increasing_in_q(self, q, n):
        assert phi(q, n) < phi(q + 1, n)

    def test_closed_form_equals_product(self):
        for q in range(2, 17):
            for n in range(11):
                assert phi(q, n) == phi_product(q, n), (q, n)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            phi(1, 2)
        with pytest.raises(ValueError):
            phi(2, -1)


class TestSubspaceCompletion:
    def test_nothing_to_complete(self):
        assert subspace_completion_success(2, 3, 3) == 1

    def test_hand_values_and_bracket(self):
        v = subspace_completion_success(2, 2, 0)
        assert v == Fraction(3, 8)
        assert Fraction(1, 2) <= 1 - v < Fraction(1, 1)
        v = subspace_completion_success(3, 2, 0)
        assert v == Fraction(16, 27)
        assert Fraction(1, 3) <= 1 - v < Fraction(1, 2)

    def test_k0_above_n_rejected(self):
        with pytest.raises(ValueError):
            subspace_completion_success(2, 2, 3)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    @pytest.mark.parametrize("gap", [1, 2, 3, 4, 5, 6])
    def test_bracket_grid(self, q, gap):
        miss = 1 - subspace_completion_success(q, gap, 0)
        assert Fraction(1, q) <= miss < Fraction(1, q - 1)


def report(w=2, c_t=2, r=0, j_count=None, profile=None) -> BoundReport:
    """A hand-made report with R_t = r, |J| = j_count (default r) and the
    cut out-profile `profile` (default r + 1 zeros, so thm1 equals thm2)."""
    profile = (0,) * (r + 1) if profile is None else tuple(profile)
    return BoundReport(w, c_t, r, r, True, r if j_count is None else j_count, profile)


class TestCutProfileBound:
    def test_butterfly_profile(self):
        rep = report(r=4, profile=[0, 1, 1, 1, 1])
        assert rep.bounds(2)["thm1"] == Fraction(125, 128)
        assert rep.bounds(3)["thm1"] == Fraction(1931, 2187)

    def test_all_zero_profile_equals_staged_bound(self):
        for r in range(4):
            b = report(r=r).bounds(3)
            assert b["thm1"] == b["thm2"] == 1 - phi(3, 2) ** (r + 1)

    def test_full_out_entries_are_vacuous(self):
        # a cut step every path has left multiplies by phi(q, 0) = 1
        b = report(r=2, profile=[0, 2, 2]).bounds(5)
        assert b["thm1"] == 1 - phi(5, 2)

    def test_oversized_entry_rejected(self):
        with pytest.raises(ValueError):
            report(r=1, profile=[0, 3]).bounds(2)


class TestStagedBound:
    def test_values(self):
        assert report(w=1, c_t=1).bounds(2)["thm2"] == Fraction(1, 2)
        b = report(r=1, j_count=4).bounds(2)
        assert (b["thm2"], b["cor1"], b["thm3"]) == (
            Fraction(55, 64), Fraction(55, 64), Fraction(32525, 32768))

    def test_zero_stage(self):
        assert report().bounds(3)["thm2"] == 1 - phi(3, 2)


class TestLowerBound:
    def test_values(self):
        assert report(w=1, c_t=1).bounds(2)["lower"] == Fraction(1, 2)
        assert report().bounds(2)["lower"] == Fraction(1, 2)
        assert report(c_t=3).bounds(4)["lower"] == Fraction(1, 16)

    def test_equality_on_single_channel(self):
        for q in (2, 3, 4, 5):
            field = make_field_of_order(q)
            exact = exact_failure(plait(1, 0), 1, field, "t")
            assert exact.fraction == full_report(plait(1, 0), "t", 1).bounds(q)["lower"]

    def test_below_butterfly_exact(self):
        assert full_report(butterfly(), "t1", 2).bounds(2)["lower"] <= butterfly_failure_law(2)


class TestFullReport:
    def test_butterfly(self):
        rep = full_report(butterfly(), "t1", 2)
        b = rep.bounds(2)
        assert b["thm1"] == Fraction(125, 128)
        assert b["thm2"] == b["cor1"] == b["thm3"] == Fraction(32525, 32768)
        assert b["lower"] == Fraction(1, 2)
        assert rep.cut_out_sizes == (0, 1, 1, 1, 1)
        assert (rep.c_t, rep.delta_t, rep.r, rep.r_min, rep.j_count) == (2, 0, 4, 4, 4)
        assert rep.r_min_exact

    def test_butterfly_thm1_is_tight(self):
        for q in (2, 3):
            assert full_report(butterfly(), "t1", 2).bounds(q)["thm1"] == butterfly_failure_law(q)

    def test_plait_equalities(self):
        b = full_report(plait(2, 1), "t", 2).bounds(2)
        assert b["thm1"] == b["thm2"] == b["cor1"] == b["thm3"] == Fraction(55, 64)
        assert b["thm3"] == plait_failure_law(2, 2, 1)

    def test_infeasible_rate(self):
        with pytest.raises(InfeasibleRateError):
            full_report(butterfly(), "t1", 3)

    def test_chain_on_corpus(self):
        for seed, w, q, density in corpus_params(60):
            net = corpus_network(seed, w, density)
            b = full_report(net, "t", w).bounds(q)
            assert 0 <= b["lower"] <= b["thm1"] <= b["thm2"] <= b["thm3"] <= 1
            assert b["cor1"] <= b["thm2"]

    def test_bound_ordering_violation_raises(self):
        # r above |J| puts thm2 over thm3; the check must survive python -O
        with pytest.raises(RuntimeError, match="bound ordering violated"):
            report(r=4, j_count=1).bounds(2)

    def test_as_dict_schema(self):
        rep = full_report(butterfly(), "t1", 2)
        doc = rep.as_dict(rep.bounds(2))
        assert set(doc) == {"C_t", "r", "R_t", "J", "bounds"}
        assert set(doc["bounds"]) == {"thm1", "thm2", "cor1", "thm3", "lower"}
        assert doc["bounds"]["thm1"] == {"num": "125", "den": "128"}
        assert doc["R_t"] == {"value": 4, "mode": "exact"}
