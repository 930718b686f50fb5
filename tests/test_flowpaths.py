"""Flows, disjoint path sets, minimal-internal-node search, cut profiles."""

from collections import Counter

import pytest

from oracles import (
    brute_force_min_cut,
    corpus_network,
    corpus_params,
    cut_sequence,
    exhaustive_min_internal,
    imaginary_inputs,
    linear_extensions,
    reaches,
)
from rlncfail.flowpaths import (
    InfeasibleRateError,
    cut_out_profile,
    disjoint_paths,
    min_cut,
    min_internal_paths,
)
from rlncfail.netmodel import (
    Channel,
    Network,
    butterfly,
    plait,
    random_dag,
)


def plait_plus_direct():
    """plait(1, 2) with an extra direct s->t channel."""
    base = plait(1, 2)
    return Network(base.nodes, base.channels + [Channel("x0", "s", "t")], rate_hint=1)


class TestMinCut:
    def test_butterfly(self):
        net = butterfly()
        assert min_cut(net, "t1") == 2 == brute_force_min_cut(net, "t1")
        assert min_cut(net, "t2") == 2

    @pytest.mark.parametrize("w,r", [(1, 0), (2, 1), (3, 2), (2, 4)])
    def test_plait(self, w, r):
        assert min_cut(plait(w, r), "t") == w

    def test_unreachable_sink(self):
        net = Network(
            {"s": "source", "u": "internal", "t": "sink"},
            [Channel("e1", "s", "u")],
        )
        assert min_cut(net, "t") == 0

    @pytest.mark.parametrize("seed", range(12))
    def test_against_brute_force(self, seed):
        net = random_dag(4, 1, 0.45, seed=seed)
        if len(net.channels) <= 14:
            assert min_cut(net, "t") == brute_force_min_cut(net, "t")


class TestDisjointPaths:
    def test_plait_two_paths(self):
        ps = disjoint_paths(plait(2, 1), "t", 2)
        assert len(ps.paths) == 2
        assert all(len(p) == 2 for p in ps.paths)
        assert ps.internal_nodes == ("i1",)

    def test_butterfly_unique_decomposition(self):
        ps = disjoint_paths(butterfly(), "t1", 2)
        assert ps.paths == (("e1", "e6"), ("e2", "e4", "e5", "e7"))
        assert ps.internal_nodes == ("u1", "u2", "b1", "b2")
        assert ps.r == 4

    def test_infeasible_rate_reports_achieved(self):
        with pytest.raises(InfeasibleRateError) as err:
            disjoint_paths(butterfly(), "t1", 3)
        assert err.value.achieved == 2

    def test_deterministic(self):
        net = random_dag(6, 2, 0.5, seed=5)
        assert disjoint_paths(net, "t", 2) == disjoint_paths(net, "t", 2)

    @pytest.mark.parametrize("seed,w,q,density", corpus_params(40))
    def test_structure_invariants(self, seed, w, q, density):
        net = corpus_network(seed, w, density)
        ps = disjoint_paths(net, "t", w)
        chans = [cid for p in ps.paths for cid in p]
        assert len(chans) == len(set(chans)), "paths share a channel"
        for path in ps.paths:
            node = "s"
            for cid in path:
                c = net.channel(cid)
                assert c.tail == node
                node = c.head
            assert node == "t"


class TestMinInternalPaths:
    def test_butterfly_matches_exhaustive(self):
        res = min_internal_paths(butterfly(), "t1", 2, mode="exact")
        assert res.exact
        assert res.paths.r == 4 == exhaustive_min_internal(butterfly(), "t1", 2)

    @pytest.mark.parametrize("w,r", [(1, 0), (1, 2), (2, 1), (3, 2)])
    def test_plait_uses_all_internal_nodes(self, w, r):
        res = min_internal_paths(plait(w, r), "t", w, mode="exact")
        assert res.exact and res.paths.r == r

    def test_direct_channel_wins(self):
        res = min_internal_paths(plait_plus_direct(), "t", 1, mode="exact")
        assert res.exact and res.paths.r == 0
        assert res.paths.paths == (("x0",),)

    def test_exact_heuristic_disjoint_chain(self):
        for seed, w, q, density in corpus_params(30):
            net = corpus_network(seed, w, density)
            exact = min_internal_paths(net, "t", w, mode="exact")
            heur = min_internal_paths(net, "t", w, mode="heuristic")
            free = disjoint_paths(net, "t", w)
            assert exact.exact
            assert exact.paths.r <= heur.paths.r <= free.r

    def test_exact_matches_exhaustive_on_small_corpus(self):
        for seed, w, q, density in corpus_params(25):
            net = corpus_network(seed, w, density)
            if len(net.channels) > 12:
                continue
            res = min_internal_paths(net, "t", w, mode="exact")
            assert res.exact
            assert res.paths.r == exhaustive_min_internal(net, "t", w)

    def test_budget_falls_back_to_heuristic_flag(self):
        res = min_internal_paths(butterfly(), "t1", 2, mode="exact", budget=1)
        assert not res.exact
        assert res.paths.r >= 4

    def test_infeasible(self):
        with pytest.raises(InfeasibleRateError):
            min_internal_paths(plait(1, 1), "t", 2)

    # the search takes exactly 16 steps on the butterfly; the feasibility
    # pruning saves one of them
    @pytest.mark.parametrize(
        "budget,exact", [(1, False), (10, False), (15, False), (16, True), (100, True)]
    )
    def test_butterfly_pinned_at_budget(self, budget, exact):
        res = min_internal_paths(butterfly(), "t1", 2, budget=budget)
        assert res.paths.paths == (("e1", "e6"), ("e2", "e4", "e5", "e7"))
        assert res.exact is exact

    # the search's exact step counts: one step short it falls back to the
    # best set so far; a reordered search would change them
    @pytest.mark.parametrize("k,w,density,seed,steps", [
        (20, 5, 0.4, 2, 23961),  # bounds-dag20 in tests/golden
        (12, 4, 0.5, 5, 834),  # the simulate-dag12 benchmark network
    ])
    def test_random_dag_steps_pinned(self, k, w, density, seed, steps):
        net = random_dag(k, w, density, seed=seed)
        short = min_internal_paths(net, "t", w, budget=steps - 1)
        full = min_internal_paths(net, "t", w, budget=steps)
        assert (short.exact, full.exact) == (False, True)
        assert full.paths.r <= short.paths.r

    @pytest.mark.parametrize("budget", [1, 10, 100])
    def test_dag20_pinned_at_budget(self, budget):
        res = min_internal_paths(random_dag(20, 5, 0.4, seed=2), "t", 5, budget=budget)
        assert res.paths.paths == (
            ("e000", "e018"), ("e001", "e025"), ("e002", "e034"), ("e006", "e064"), ("e008", "e076"),
        )
        assert not res.exact


class TestCutSequence:
    def test_plait_cuts(self):
        net = plait(2, 1)
        cs = cut_sequence(net, disjoint_paths(net, "t", 2))
        assert cs.cuts[0] == frozenset(imaginary_inputs(2).ids)
        assert cs.cuts[1] == {"e000", "e001"}
        assert cs.cuts[2] == {"e002", "e003"}
        assert cs.out_sizes == (0, 0)

    def test_butterfly_profile(self):
        net = butterfly()
        cs = cut_sequence(net, disjoint_paths(net, "t1", 2))
        assert cs.out_sizes == (0, 1, 1, 1, 1)
        assert cs.cuts[-1] == {"e6", "e7"}

    @pytest.mark.parametrize("seed,w,q,density", corpus_params(40))
    def test_invariants(self, seed, w, q, density):
        net = corpus_network(seed, w, density)
        ps = disjoint_paths(net, "t", w)
        cs = cut_sequence(net, ps)
        assert len(cs.cuts) == ps.r + 2
        assert len(cs.in_parts) == len(cs.out_parts) == ps.r + 1
        assert cs.out_sizes[0] == 0
        for k, cut in enumerate(cs.cuts):
            assert len(cut) == w
        for k in range(ps.r + 1):
            assert cs.in_parts[k] | cs.out_parts[k] == cs.cuts[k]
            assert not (cs.in_parts[k] & cs.out_parts[k])
            assert len(cs.in_parts[k]) + len(cs.out_parts[k]) == w

    @pytest.mark.parametrize("seed,w,q,density", corpus_params(25))
    def test_each_cut_separates_the_path_graph(self, seed, w, q, density):
        net = corpus_network(seed, w, density)
        ps = disjoint_paths(net, "t", w)
        cs = cut_sequence(net, ps)
        path_channels = ps.channel_ids
        others = frozenset(c.id for c in net.channels) - path_channels
        for cut in cs.cuts:
            removed = others | (cut - frozenset(imaginary_inputs(w).ids))
            if cut == cs.cuts[0]:
                continue  # the imaginary cut removes no real channel
            assert not reaches(net, "t", removed)

    def test_rejects_broken_chain(self):
        from rlncfail.flowpaths import PathSet

        net = butterfly()
        broken = PathSet(
            sink="t1", rate=2,
            paths=(("e1", "e7"), ("e2", "e4", "e5", "e6")),  # heads don't chain
            internal_nodes=("u1", "u2", "b1", "b2"),
        )
        with pytest.raises(ValueError, match="chain"):
            cut_sequence(net, broken)

    def test_rejects_foreign_order(self):
        net = butterfly()
        ps = disjoint_paths(net, "t1", 2)
        with pytest.raises(ValueError):
            cut_sequence(net, ps, node_order=("u1", "u2", "b1"))

    def test_rejects_non_extension_order(self):
        net = butterfly()
        ps = disjoint_paths(net, "t1", 2)
        with pytest.raises(ValueError):
            cut_sequence(net, ps, node_order=("b2", "b1", "u2", "u1"))


class TestCutOutProfile:
    def test_matches_cut_advancement(self):
        cases = [(butterfly(), "t1", 2), (butterfly(), "t2", 2)] + [
            (corpus_network(seed, w, density), "t", w)
            for seed, w, q, density in corpus_params()
        ]
        for net, t, w in cases:
            ps = disjoint_paths(net, t, w)
            profile = cut_out_profile(net, ps)
            assert profile == cut_sequence(net, ps).out_sizes
            if ps.r <= 6:
                for ext in linear_extensions(net, ps):
                    ext_sizes = cut_sequence(net, ps, ext).out_sizes
                    assert Counter(ext_sizes) == Counter(profile)


class TestLinearExtensions:
    def test_butterfly_has_two(self):
        net = butterfly()
        ps = disjoint_paths(net, "t1", 2)
        exts = set(linear_extensions(net, ps))
        assert exts == {("u1", "u2", "b1", "b2"), ("u2", "u1", "b1", "b2")}

    def test_every_extension_yields_same_profile_multiset(self):
        # the out-part size at a node equals w minus the number of paths
        # entering it, independent of the chosen order
        for seed, w, q, density in corpus_params(20):
            net = corpus_network(seed, w, density)
            ps = disjoint_paths(net, "t", w)
            if ps.r > 6:
                continue
            profiles = {
                tuple(sorted(cut_sequence(net, ps, ext).out_sizes))
                for ext in linear_extensions(net, ps)
            }
            assert len(profiles) == 1

    def test_limit_guard(self):
        net = plait(1, 9)
        ps = disjoint_paths(net, "t", 1)
        with pytest.raises(ValueError):
            list(linear_extensions(net, ps))
