"""Flows, disjoint path sets, minimal-internal-node search, cut profiles."""

import itertools
import math
import random
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    brute_force_min_cut,
    corpus_network,
    corpus_params,
    cut_sequence,
    exhaustive_min_internal,
    imaginary_inputs,
    linear_extensions,
    reaches,
    recursive_min_internal_paths,
    reference_max_flow,
    small_multigraph,
    subset_min_internal,
)
from rlncfail import flowpaths
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
    read_network,
)


def plait_plus_direct(w=1, r=2):
    """plait(w, r) with an extra direct s->t channel, which no internal node
    lies on."""
    base = plait(w, r)
    return Network(base.nodes, base.channels + [Channel("x0", "s", "t")], rate_hint=w)


def draw_small_dag(data):
    """A small DAG with parallel channels, dead nodes and a second sink u."""
    k = data.draw(st.integers(0, 5))
    names = ["s"] + [f"i{a}" for a in range(1, k + 1)] + ["t", "u"]
    pairs = [(a, b) for a in range(k + 1) for b in range(a + 1, k + 3)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=14))
    nodes = {n: "internal" for n in names} | {"s": "source", "t": "sink", "u": "sink"}
    channels = [Channel(f"e{j:02d}", names[a], names[b]) for j, (a, b) in enumerate(chosen)]
    return Network(nodes, channels)


class TestMinCut:
    def test_butterfly(self):
        net = butterfly()
        assert min_cut(net, "t1") == 2 == brute_force_min_cut(net, "t1")
        assert min_cut(net, "t2") == 2

    @pytest.mark.parametrize("w,r", [(1, 0), (2, 1), (3, 2), (2, 4)])
    def test_plait(self, w, r):
        assert min_cut(plait(w, r), "t") == w

    def test_one_max_flow_per_network_and_sink(self, monkeypatch):
        # the value is kept on the network it was computed for, so two
        # networks with the same sink id each run their own max-flow
        limits = []
        max_flow = flowpaths._max_flow

        def counted(*args, **kwargs):
            limits.append(kwargs.get("limit"))
            return max_flow(*args, **kwargs)

        monkeypatch.setattr(flowpaths, "_max_flow", counted)
        a, b = plait(1, 1), plait(2, 1)
        assert [min_cut(net, "t") for net in (a, b, a, b)] == [1, 2, 1, 2]
        assert limits == [None, None]
        assert (a.min_cuts, b.min_cuts) == ({"t": 1}, {"t": 2})
        with pytest.raises(InfeasibleRateError, match="max-flow is 1"):
            disjoint_paths(a, "t", 2)  # reports the kept value
        assert limits == [None, None, 2]

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


class TestWarmStart:
    # start paths: any subset of a cold flow's decomposition that avoids
    # `removed`, at most `limit` of them, as the search passes the heuristic's
    def test_warm_flow_matches_cold(self):
        cases = [(corpus_network(seed, w, d), "t") for seed, w, q, d in corpus_params()]
        cases += [(butterfly(), "t1"), (butterfly(), "t2")]
        for k, (net, t) in enumerate(cases):
            rng = random.Random(k)
            ti, s = net.index[t], net.index[net.source]
            for _ in range(3):
                removed = {j for j in range(len(net.channels)) if rng.random() < 0.2}
                value, flow = flowpaths._max_flow(net, ti, removed=removed)
                paths = flowpaths._decompose(net, ti, flow, value)
                for limit in [*range(1, value + 2), None]:
                    start = [p for p in paths if rng.random() < 0.5][:limit]
                    cold = flowpaths._max_flow(net, ti, limit, removed)[0]
                    warm, flow = flowpaths._max_flow(net, ti, limit, removed, start=start)
                    assert warm == cold, (k, removed, limit, start)
                    assert flow.isdisjoint(removed)
                    for v in range(len(net.order)):
                        if v not in (s, ti):
                            ins = sum(j in flow for j in net.ins[v])
                            assert ins == sum(j in flow for j in net.outs[v])
                    split = flowpaths._decompose(net, ti, flow, warm)
                    assert len(split) == warm
                    assert sorted(j for p in split for j in p) == sorted(flow)


class TestCompiledMaxFlow:
    # the reference sorts each visited node's residual moves at every DFS
    # step; the compiled arcs must visit them in the same order, so every
    # flow is the same channel set, warm-started or not
    def test_flows_match_reference(self):
        cases = [(corpus_network(seed, w, d), ("t",)) for seed, w, q, d in corpus_params()]
        cases += [(small_multigraph(random.Random(seed)), ("t", "u")) for seed in range(200)]
        cases += [(butterfly(), ("t1", "t2")), (random_dag(30, 6, 0.3, seed=2), ("t",))]
        for k, (net, sinks) in enumerate(cases):
            rng = random.Random(k)
            for t in sinks:
                ti = net.index[t]
                c_t = reference_max_flow(net, ti)[0]
                heur = flowpaths._min_cost_paths(net, t, c_t) if c_t else ()
                channels = range(len(net.channels))
                for removed in [set()] + [{j for j in channels if rng.random() < 0.2} for _ in range(3)]:
                    fits = [p for p in heur if removed.isdisjoint(p)]
                    for limit in [None, *range(1, c_t + 1)]:
                        for start in ((), fits[:limit]):
                            args = (net, ti, limit, removed, start)
                            assert flowpaths._max_flow(*args) == reference_max_flow(*args), (
                                k, t, removed, limit, start)

    def test_disjoint_paths_decompose_kept_flow(self, monkeypatch):
        # at w = C_t the min-cut's flow is the flow limited to w (the
        # unlimited run's last DFS finds nothing), so no second flow runs;
        # rebuilt, a topped-up network keeps its flow too
        limits = []
        max_flow = flowpaths._max_flow

        def counted(*args, **kwargs):
            limits.append(kwargs.get("limit"))
            return max_flow(*args, **kwargs)

        monkeypatch.setattr(flowpaths, "_max_flow", counted)
        checked = 0
        for seed, w, q, density in corpus_params():
            net = corpus_network(seed, w, density)
            net = Network(net.nodes, net.channels)
            limits.clear()
            if min_cut(net, "t") != w:
                continue
            ti = net.index["t"]
            flow = reference_max_flow(net, ti, limit=w)[1]
            expected = flowpaths._path_set(net, "t", w, flowpaths._decompose(net, ti, flow, w))
            assert disjoint_paths(net, "t", w) == expected, seed
            assert limits == [None], seed
            checked += 1
        assert checked == 153  # of the 200


class TestNewEnds:
    @settings(max_examples=300, deadline=None)
    @given(
        heads=st.lists(st.integers(0, 4), max_size=10),
        used=st.sets(st.integers(0, 9), max_size=3),
        internal=st.sets(st.integers(0, 4)),
        nodes=st.frozensets(st.integers(0, 4), max_size=2),
        need=st.integers(-1, 11),
    )
    @example(heads=[1, 1, 1, 2], used=set(), internal={1, 2}, nodes=frozenset(), need=3)
    def test_greedy_matches_subset_minimum(self, heads, used, internal, nodes, need):
        # the fewest new internal nodes whose unused channels, with the free
        # ones, reach `need`, by trying every subset of the new nodes
        ends = list(enumerate(heads))
        live = [v for j, v in ends if j not in used]
        new = sorted({v for v in live if v in internal and v not in nodes})
        free = sum(v not in new for v in live)
        best = math.inf
        for size in range(len(new) + 1):
            if any(free + sum(v in chosen for v in live) >= need
                   for chosen in itertools.combinations(new, size)):
                best = size
                break
        assert flowpaths._new_ends(ends, used, internal, nodes, need) == best


class TestMinInternalPaths:
    def test_butterfly_matches_exhaustive(self):
        res = min_internal_paths(butterfly(), "t1", 2)
        assert res.exact
        assert res.paths.r == 4 == exhaustive_min_internal(butterfly(), "t1", 2)

    @pytest.mark.parametrize("w,r", [(1, 0), (1, 2), (2, 1), (3, 2)])
    def test_plait_uses_all_internal_nodes(self, w, r):
        res = min_internal_paths(plait(w, r), "t", w)
        assert res.exact and res.paths.r == r

    def test_direct_channel_wins(self):
        res = min_internal_paths(plait_plus_direct(), "t", 1)
        assert res.exact and res.paths.r == 0
        assert res.paths.paths == (("x0",),)

    def test_exact_heuristic_disjoint_chain(self):
        for seed, w, q, density in corpus_params(30):
            net = corpus_network(seed, w, density)
            exact = min_internal_paths(net, "t", w)
            heur = min_internal_paths(net, "t", w, budget=0)
            free = disjoint_paths(net, "t", w)
            assert exact.exact
            assert exact.paths.r <= heur.paths.r <= free.r

    def test_exact_matches_exhaustive_on_small_corpus(self):
        for seed, w, q, density in corpus_params(25):
            net = corpus_network(seed, w, density)
            if len(net.channels) > 12:
                continue
            res = min_internal_paths(net, "t", w)
            assert res.exact
            assert res.paths.r == exhaustive_min_internal(net, "t", w)

    def test_budget_falls_back_to_heuristic_flag(self):
        res = min_internal_paths(butterfly(), "t1", 2, budget=1)
        assert not res.exact
        assert res.paths.r >= 4

    def test_infeasible(self):
        with pytest.raises(InfeasibleRateError):
            min_internal_paths(plait(1, 1), "t", 2)

    def test_heuristic_settles_reversed_chain_in_one_pass(self, tmp_path):
        # channel ids run against the topology: relaxed in id order, each
        # Bellman-Ford pass would settle one more node of the chain
        names = ["s"] + [f"i{k}" for k in range(1, 4999)] + ["t"]
        roles = ["source"] + ["internal"] * 4998 + ["sink"]
        lines = [f"node {v} {role}" for v, role in zip(names, roles)]
        stages = enumerate(zip(names, names[1:]))
        lines += [f"channel c{4999 - k:04d} {a} {b}" for k, (a, b) in stages]
        (tmp_path / "chain.net").write_text("\n".join(lines) + "\n")
        net = read_network(tmp_path / "chain.net")
        start = time.perf_counter()
        res = min_internal_paths(net, "t", 1, budget=0)
        assert time.perf_counter() - start < 1.0
        assert res.paths.r == 4998

    # the search takes exactly 6 steps on the butterfly: the channels into
    # t2 lead nowhere near t1, and the end-node bound cuts the rest
    @pytest.mark.parametrize(
        "budget,exact", [(1, False), (5, False), (6, True), (12, True), (100, True)]
    )
    def test_butterfly_pinned_at_budget(self, budget, exact):
        res = min_internal_paths(butterfly(), "t1", 2, budget=budget)
        assert res.paths.paths == (("e1", "e6"), ("e2", "e4", "e5", "e7"))
        assert res.exact is exact

    # the search's exact step counts: one step short it falls back to the
    # best set so far; a reordered search would change them
    @pytest.mark.parametrize("k,w,density,seed,steps", [
        (20, 5, 0.4, 2, 12),  # bounds-dag20 in tests/golden
        (12, 4, 0.5, 5, 6),  # the simulate-dag12 benchmark network
        (25, 6, 0.3, 2, 1297),  # bounds-dag25 in tests/golden
        (30, 6, 0.3, 2, 10),  # the bounds-dag30 benchmark network
    ])
    def test_random_dag_steps_pinned(self, k, w, density, seed, steps):
        net = random_dag(k, w, density, seed=seed)
        short = min_internal_paths(net, "t", w, budget=steps - 1)
        full = min_internal_paths(net, "t", w, budget=steps)
        assert (short.exact, full.exact) == (False, True)
        assert full.paths.r <= short.paths.r

    @pytest.mark.parametrize("budget", [1, 5, 10, 11])  # below its 12 steps
    def test_dag20_pinned_at_budget(self, budget):
        res = min_internal_paths(random_dag(20, 5, 0.4, seed=2), "t", 5, budget=budget)
        assert res.paths.paths == (
            ("e000", "e018"), ("e001", "e025"), ("e002", "e034"), ("e006", "e064"), ("e008", "e076"),
        )
        assert not res.exact

    @pytest.mark.parametrize("net,t,w,steps", [
        (butterfly(), "t1", 2, 16),
        (random_dag(20, 5, 0.4, seed=2), "t", 5, 23961),
        (random_dag(12, 4, 0.5, seed=5), "t", 4, 834),
    ], ids=["butterfly", "dag20", "dag12"])
    def test_oracle_steps_match_pins(self, net, t, w, steps):
        assert recursive_min_internal_paths(net, t, w)[1:] == (True, steps)

    def test_matches_recursive_oracle(self):
        # the prunes cut only subtrees that hold no better set, so a finished
        # search returns the oracle's set; under a budget the library stops
        # where the oracle does, or has already finished
        cases = [(corpus_network(seed, w, d), "t", w) for seed, w, q, d in corpus_params()]
        cases += [(butterfly(), "t1", 2), (butterfly(), "t2", 2)]
        for net, t, w in cases:
            paths, exact, steps = recursive_min_internal_paths(net, t, w, budget=10**6)
            res = min_internal_paths(net, t, w, budget=10**6)
            assert (res.paths, res.exact) == (paths, exact) == (paths, True)
            assert min_internal_paths(net, t, w, budget=steps).exact
            for budget in (1, 10, 100):
                res = min_internal_paths(net, t, w, budget=budget)
                at_budget = recursive_min_internal_paths(net, t, w, budget=budget)[:2]
                assert (res.paths, res.exact) in (at_budget, (paths, True))

    def test_end_nodes_already_on_the_set_are_free(self):
        # both best paths run s=v=x=t; once the first is finished, x is on
        # the set and its second channel into t adds no node, so the
        # end-node bound must not count it (the heuristic takes a, b, c)
        nodes = {"s": "source", "t": "sink"} | {v: "internal" for v in "vxabc"}
        pairs = ["sv", "sv", "vx", "vx", "xt", "xt", "sa", "at", "sb", "bc", "ct"]
        net = Network(nodes, [Channel(f"e{k:02d}", a, b) for k, (a, b) in enumerate(pairs)])
        assert min_internal_paths(net, "t", 2, budget=0).paths.r == 3
        res = min_internal_paths(net, "t", 2)
        assert (res.paths, res.exact) == recursive_min_internal_paths(net, "t", 2)[:2]
        assert res.exact and res.paths.internal_nodes == ("v", "x")

    def test_dead_subgraph_changes_nothing(self):
        # nodes that cannot reach t, a second sink among them, add channels
        # to the network but not one step to the search
        net = random_dag(12, 4, 0.5, seed=5)
        nodes = dict(net.nodes, z1="internal", z2="internal", z3="sink")
        dead = [("s", "z1"), ("s", "z1"), ("i3", "z1"), ("i7", "z2"), ("z1", "z2"),
                ("z2", "z3"), ("i5", "z3")]
        extra = [Channel(f"x{k}", a, b) for k, (a, b) in enumerate(dead)]
        grown = Network(nodes, net.channels + extra)
        for budget in (5, 6, 10**6):
            res = min_internal_paths(net, "t", 4, budget=budget)
            assert res.exact is (budget > 5)
            assert min_internal_paths(grown, "t", 4, budget=budget) == res

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_r_matches_oracle_on_small_dags(self, data):
        net = draw_small_dag(data)
        cut = min_cut(net, "t")
        assume(cut >= 1)
        w = data.draw(st.integers(1, cut))
        res = min_internal_paths(net, "t", w)
        paths, exact, _ = recursive_min_internal_paths(net, "t", w)
        assert (res.paths.r, res.paths, res.exact) == (paths.r, paths, exact)

    def test_overlap_counted_once(self):
        # after s=a the new node x alone can start the second path (s=x) and
        # end both (x=t twice), so the bound adds 1 node, not 1 at each end;
        # counted twice, it would drop {a, x} for the heuristic's {a, c, x}
        nodes = {"s": "source", "t": "sink"} | {v: "internal" for v in "acx"}
        pairs = ["sa", "sx", "ac", "ax", "ct", "xt", "xt"]
        net = Network(nodes, [Channel(f"e{k}", a, b) for k, (a, b) in enumerate(pairs)])
        assert min_internal_paths(net, "t", 2, budget=0).paths.r == 3
        res = min_internal_paths(net, "t", 2)
        assert res.exact and res.paths.internal_nodes == ("a", "x")
        assert subset_min_internal(net, "t", 2) == 2

    def test_r_matches_subset_oracle(self):
        for seed in range(500):
            rng = random.Random(seed)
            net = small_multigraph(rng)
            w = rng.randint(1, min_cut(net, "t"))
            res = min_internal_paths(net, "t", w)
            assert res.exact and res.paths.r == subset_min_internal(net, "t", w), seed

    @pytest.mark.parametrize("params, expected", [
        ((10, 3, 0.3, 2), (4, True, 1)),
        ((10, 4, 0.3, 2), (4, True, 1)),
        ((10, 6, 0.3, 2), (4, True, 1)),
        ((15, 6, 0.3, 1), (9, True, 6)),
        ((25, 6, 0.3, 2), (9, True, 57)),
        ((30, 6, 0.3, 5), (10, True, 9)),
    ])
    def test_feasibility_max_flows(self, monkeypatch, params, expected):
        # a max-flow only when neither the end-node bound nor the heuristic's
        # paths clear of the used channels settle a check, grown from those
        # paths.  These are the random_dag grid networks (internal 10..30,
        # w 3, 4 or 6, density 0.3 or 0.5, seeds 1..5) that run any; the
        # recursive oracle runs 1,354 on random_dag(25, 6, 0.3, seed=2)
        net = random_dag(*params)
        calls = []
        max_flow = flowpaths._max_flow

        def counted(*args, **kwargs):
            calls.append(1)
            return max_flow(*args, **kwargs)

        monkeypatch.setattr(flowpaths, "_max_flow", counted)
        res = min_internal_paths(net, "t", params[1])
        assert (res.paths.r, res.exact, len(calls)) == expected

    def test_bounds_memoized(self, monkeypatch):
        # each end-node bound is computed once per key: the used ends, the
        # ends whose node is on the set, the first end left and the paths
        # missing; computed afresh at every check, it runs 2,396 times here
        calls = []
        new_ends = flowpaths._new_ends

        def counted(*args):
            calls.append(1)
            return new_ends(*args)

        monkeypatch.setattr(flowpaths, "_new_ends", counted)
        net = random_dag(25, 6, 0.3, seed=2)
        res = min_internal_paths(net, "t", 6)
        assert (res.paths, res.exact) == recursive_min_internal_paths(net, "t", 6)[:2]
        assert len(calls) == 267 < 2396

    def test_search_memory_stays_flat(self):
        # one node set with undo: 2,000 nodes deep, the search holds a frame
        # per channel of the path and no copy of the node set in each.  The
        # direct channel leaves no node on every path, so the search runs
        # until the budget ends it (a plain plait is settled at its floor)
        net = plait_plus_direct(3, 2000)
        tracemalloc.start()
        try:
            res = min_internal_paths(net, "t", 3, budget=10_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (res.paths.r, res.exact) == (2000, False)
        assert peak < 8_000_000


class TestFloor:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_node_removal(self, data):
        # the floor counts the internal nodes whose removal cuts t off
        net = draw_small_dag(data)
        assume(reaches(net, "t"))
        cut_off = sum(
            not reaches(net, "t", frozenset(c.id for c in net.channels if v in (c.tail, c.head)))
            for v in net.internal_nodes
        )
        s, ti = net.index["s"], net.index["t"]
        assert flowpaths._floor(net, s, ti, net.reaching(ti)) == cut_off

    @pytest.mark.parametrize("r", [15, 2000])
    def test_plait_exact_in_no_step(self, r):
        # every internal node of a plait lies on every path, so the
        # heuristic's count is the floor and a budget of 0 steps suffices
        res = min_internal_paths(plait(3, r), "t", 3, budget=0)
        assert (res.paths.r, res.exact) == (r, True)

    def test_direct_channel_leaves_the_search_to_run(self):
        net = plait_plus_direct(3, 15)
        s, ti = net.index["s"], net.index["t"]
        assert flowpaths._floor(net, s, ti, net.reaching(ti)) == 0
        res = min_internal_paths(net, "t", 3, budget=1000)
        assert (res.paths.r, res.exact) == (15, False)

    def test_budget_zero_is_the_heuristic(self):
        # no step: the min-cost-flow set, proved only when it meets the floor
        nets = [(corpus_network(seed, w, density), w) for seed, w, _, density in corpus_params(200)]
        nets += [(plait(3, r), 3) for r in (1, 4, 15)] + [(plait_plus_direct(3, 15), 3)]
        proved = 0
        for net, w in nets:
            s, ti = net.index["s"], net.index["t"]
            heur = flowpaths._path_set(net, "t", w, flowpaths._min_cost_paths(net, "t", w))
            res = min_internal_paths(net, "t", w, budget=0)
            assert res.paths == heur
            assert res.exact is (heur.r == flowpaths._floor(net, s, ti, net.reaching(ti)))
            proved += res.exact
        assert 3 <= proved < len(nets)  # both flags occur


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
