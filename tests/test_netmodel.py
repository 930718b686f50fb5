"""Network model: checks at construction, generators, topological order, file format."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rlncfail.netmodel as netmodel
from oracles import (
    RandomStream,
    brute_force_min_cut,
    corpus_network,
    corpus_params,
    imaginary_inputs,
    input_channel_ids,
    uniform_int,
)
from rlncfail.netmodel import (
    MAX_GENERATED,
    Channel,
    Network,
    NetworkFormatError,
    NetworkValidationError,
    butterfly,
    network_from_text,
    network_to_text,
    plait,
    random_dag,
    read_network,
    write_network,
)


def two_node(*channels):
    return Network({"s": "source", "t": "sink"}, list(channels))


def violations_of(nodes, channels):
    """The violations an illegal network's construction reports."""
    with pytest.raises(NetworkValidationError) as info:
        Network(nodes, channels)
    return info.value.violations


class TestValidate:
    def test_generators_are_legal(self):
        for net in (butterfly(), plait(2, 1), plait(1, 0), random_dag(4, 2, 0.5, seed=3)):
            assert sorted(net.order) == sorted(net.nodes)

    def test_smallest_cycle(self):
        violations = violations_of(
            {"s": "source", "u": "internal", "v": "internal", "t": "sink"},
            [Channel("e1", "u", "v"), Channel("e2", "v", "u"), Channel("e3", "s", "t")],
        )
        assert violations == ("channel graph has a cycle: u -> v -> u",)

    def test_cycle_named_from_its_smallest_node(self):
        # a sorts first and hangs off the cycle; walking back from a enters
        # the cycle at v, but the message starts at u
        violations = violations_of(
            {"s": "source", "u": "internal", "v": "internal", "a": "internal", "t": "sink"},
            [
                Channel("e1", "u", "v"),
                Channel("e2", "v", "u"),
                Channel("e3", "v", "a"),
                Channel("e4", "s", "t"),
            ],
        )
        assert violations == ("channel graph has a cycle: u -> v -> u",)

    def test_cycle_follows_channel_direction(self):
        violations = violations_of(
            {"s": "source", "u": "internal", "v": "internal", "w": "internal", "t": "sink"},
            [
                Channel("e1", "w", "u"),
                Channel("e2", "u", "v"),
                Channel("e3", "v", "w"),
                Channel("e4", "s", "t"),
            ],
        )
        assert violations == ("channel graph has a cycle: u -> v -> w -> u",)

    def test_self_loop_is_a_cycle(self):
        violations = violations_of(
            {"s": "source", "u": "internal", "t": "sink"},
            [Channel("e1", "s", "u"), Channel("e2", "u", "u"), Channel("e3", "u", "t")],
        )
        assert violations == (
            "channel e2 is a self-loop at u",
            "channel graph has a cycle: u -> u",
        )

    def test_source_with_incoming(self):
        violations = violations_of(
            {"s": "source", "u": "internal", "t": "sink"},
            [Channel("e1", "s", "u"), Channel("e2", "u", "s"), Channel("e3", "u", "t")],
        )
        assert any("source" in v and "incoming" in v for v in violations)
        # the u->s->u cycle is reported as well
        assert any("cycle" in v for v in violations)

    def test_sink_with_outgoing(self):
        violations = violations_of(
            {"s": "source", "t": "sink", "t2": "sink"},
            [Channel("e1", "s", "t"), Channel("e2", "t", "t2")],
        )
        assert any("sink" in v and "outgoing" in v for v in violations)

    def test_dangling_endpoint(self):
        violations = violations_of({"s": "source", "t": "sink"}, [Channel("e1", "s", "ghost")])
        assert any("dangling" in v for v in violations)

    def test_reserved_imaginary_id(self):
        violations = violations_of({"s": "source", "t": "sink"}, [Channel("d1", "s", "t")])
        assert any("reserved" in v for v in violations)

    def test_multiple_sources(self):
        violations = violations_of(
            {"s": "source", "s2": "source", "t": "sink"}, [Channel("e1", "s", "t")]
        )
        assert any("source" in v for v in violations)

    def test_all_violations_in_order(self):
        violations = violations_of(
            {"s": "source", "s2": "source", "x": "relay"},
            [Channel("d1", "s", "ghost"), Channel("e1", "x", "s")],
        )
        assert violations == (
            "node x has unknown role 'relay'",
            "expected exactly one source node, found 2",
            "network has no sink node",
            "channel id d1 is reserved for imaginary source inputs",
            "channel d1 has dangling head ghost",
            "source node s has incoming channel e1",
        )


class TestTopologicalOrder:
    def test_plait_chain_is_forced(self):
        assert plait(2, 1).order == ("s", "i1", "t")

    def test_butterfly_extremes(self):
        order = butterfly().order
        assert order[0] == "s"
        assert set(order[-2:]) == {"t1", "t2"}

    def test_parallel_channels(self):
        net = two_node(Channel("e1", "s", "t"), Channel("e2", "s", "t"))
        assert net.order == ("s", "t")

    def test_cycle_raises(self):
        with pytest.raises(NetworkValidationError, match="cycle"):
            Network(
                {"s": "source", "u": "internal", "v": "internal", "t": "sink"},
                [Channel("e1", "u", "v"), Channel("e2", "v", "u"), Channel("e3", "s", "t")],
            )

    def test_long_chain(self):
        # longer than the interpreter's recursion limit: the checks and the
        # order must not recurse per node
        net = plait(1, 1500)
        assert net.order == ("s",) + tuple(f"i{k}" for k in range(1, 1501)) + ("t",)
        assert network_from_text(network_to_text(net)) == net


class TestGenerators:
    def test_plait_shape(self):
        net = plait(2, 1)
        assert len(net.nodes) == 3 and len(net.channels) == 4
        net = plait(1, 0)
        assert len(net.channels) == 1
        c = net.channels[0]
        assert (c.tail, c.head) == ("s", "t")
        net = plait(3, 2)
        assert len(net.channels) == 9

    def test_plait_stage_structure(self):
        net = plait(3, 2)
        for k, (a, b) in enumerate((("s", "i1"), ("i1", "i2"), ("i2", "t"))):
            stage = [c for c in net.channels if c.tail == a]
            assert len(stage) == 3 and all(c.head == b for c in stage)

    def test_butterfly_shape(self):
        net = butterfly()
        assert len(net.nodes) == 7
        assert len(net.channels) == 9
        assert net.source == "s"
        assert net.sinks == {"t1", "t2"}
        assert net.internal_nodes == {"u1", "u2", "b1", "b2"}
        assert len(net.in_channels("t1")) == 2

    def test_random_dag_zero_internal_full_density(self):
        net = random_dag(0, 3, 1.0, seed=0)
        assert net.order == ("s", "t")
        assert len(net.channels) == 3
        assert all((c.tail, c.head) == ("s", "t") for c in net.channels)

    def test_random_dag_deterministic(self):
        assert random_dag(5, 2, 0.4, seed=7) == random_dag(5, 2, 0.4, seed=7)
        assert random_dag(5, 2, 0.4, seed=7) != random_dag(5, 2, 0.4, seed=8)

    @pytest.mark.parametrize(
        "k,density,seed", [(0, 1.0, 0), (4, 0.5, 3), (7, 0.3, -12345), (12, 0.8, 2**40), (30, 0.3, 2)]
    )
    def test_random_dag_draws_one_word_per_pair(self, k, density, seed):
        # stream 0 of the seed, one 32-bit draw per forward pair in (a, b) order
        rng = RandomStream(seed)
        names = ["s"] + [f"i{j}" for j in range(1, k + 1)] + ["t"]
        thresh = int(density * (1 << 32))
        expect = [
            (names[a], names[b])
            for a in range(len(names))
            for b in range(a + 1, len(names))
            if uniform_int(1 << 32, rng) < thresh
        ]
        assert rng.counter == (k + 2) * (k + 1) // 2  # 2^32 never rejects a word
        net = random_dag(k, 2, density, seed=seed)
        got = [(c.tail, c.head) for c in net.channels]
        assert [c.id for c in net.channels] == [f"e{i:03d}" for i in range(len(got))]
        assert got[: len(expect)] == expect
        assert set(got[len(expect) :]) <= {("s", "t")}

    def test_generator_sizes_capped_before_building(self, monkeypatch):
        assert MAX_GENERATED == 1 << 20
        monkeypatch.setattr(netmodel, "uniform_rows", None)  # calling it would raise TypeError
        for args in ((MAX_GENERATED + 1, 0), (1 << 10, 1 << 10), (1 << 40, 1 << 40)):
            with pytest.raises(ValueError, match="channels, above 1048576"):
                plait(*args)
        for k, w in ((1447, 1), (1446, 949), (10**12, 1), (0, 1 << 40)):
            with pytest.raises(ValueError, match="exceed 1048576"):
                random_dag(k, w, 0.5, seed=0)

    def test_largest_random_dag_fits(self):
        net = random_dag(1446, 948, 1e-9, seed=0)  # 1,047,628 pairs + 948
        assert len(net.nodes) == 1448 and len(net.channels) >= 948

    @settings(max_examples=30, deadline=None)
    @given(
        internal=st.integers(0, 6),
        w=st.integers(1, 3),
        density=st.floats(0.05, 1.0),
        seed=st.integers(0, 10_000),
    )
    def test_random_dag_always_valid_with_feasible_rate(self, internal, w, density, seed):
        from rlncfail.flowpaths import min_cut

        net = random_dag(internal, w, density, seed=seed)
        assert sorted(net.order) == sorted(net.nodes)
        assert min_cut(net, "t") >= w


class TestIntegerView:
    def test_butterfly(self):
        net = butterfly()
        assert net.order == ("s", "u1", "u2", "b1", "b2", "t1", "t2")
        assert net.index == {n: i for i, n in enumerate(net.order)}
        # e1..e9 are channels 0..8
        assert net.tail == (0, 0, 1, 2, 3, 1, 4, 2, 4)
        assert net.head == (1, 2, 3, 3, 4, 5, 5, 6, 6)
        assert net.outs == ((0, 1), (2, 5), (3, 7), (4,), (6, 8), (), ())
        assert net.ins == ((), (0,), (1,), (2, 3), (4,), (5, 6), (7, 8))

    def test_matches_string_api(self):
        nets = [corpus_network(seed, w, d) for seed, w, _, d in corpus_params(40)]
        for net in nets + [plait(3, 2), butterfly()]:
            ids = [c.id for c in net.channels]
            assert ids == sorted(ids)
            for j, c in enumerate(net.channels):
                assert (net.order[net.tail[j]], net.order[net.head[j]]) == (c.tail, c.head)
            for i, n in enumerate(net.order):
                assert [ids[j] for j in net.outs[i]] == [c.id for c in net.out_channels(n)]
                assert [ids[j] for j in net.ins[i]] == [c.id for c in net.in_channels(n)]
                assert list(net.outs[i]) == sorted(net.outs[i])
                assert list(net.ins[i]) == sorted(net.ins[i])


class TestImaginaryInputs:
    def test_ids_and_rate(self):
        im = imaginary_inputs(3)
        assert im.ids == ("d1", "d2", "d3")
        assert im.rate == 3

    def test_source_inputs_are_imaginary(self):
        net = butterfly()
        assert input_channel_ids(net, "s", 2) == ("d1", "d2")
        assert input_channel_ids(net, "b1", 2) == ("e3", "e4")


class TestFileFormat:
    def test_round_trip_generators(self, tmp_path):
        for net in (butterfly(), plait(2, 3), random_dag(4, 2, 0.5, seed=11)):
            path = tmp_path / "net.txt"
            write_network(net, str(path))
            assert read_network(str(path)) == net

    def test_round_trip_stream(self):
        buf = io.StringIO()
        write_network(butterfly(), buf)
        assert read_network(io.StringIO(buf.getvalue())) == butterfly()

    def test_comments_and_order_ignored(self):
        text = network_to_text(plait(1, 0))
        shuffled = "# generated\n" + "\n".join(reversed(text.strip().splitlines())) + "\n"
        assert network_from_text(shuffled) == plait(1, 0)

    def test_unknown_node_rejected_at_parse(self):
        text = "node s source\nnode t sink\nchannel e1 s ghost\n"
        with pytest.raises(NetworkFormatError, match="unknown node"):
            network_from_text(text)

    def test_cycle_rejected_at_validation(self):
        text = (
            "node s source\nnode t sink\nnode u internal\nnode v internal\n"
            "channel e1 s t\nchannel e2 u v\nchannel e3 v u\n"
        )
        with pytest.raises(NetworkValidationError, match="cycle"):
            network_from_text(text)

    def test_bad_directive(self):
        with pytest.raises(NetworkFormatError, match="line 1"):
            network_from_text("nodez s source\n")

    def test_duplicate_channel_id(self):
        text = "node s source\nnode t sink\nchannel e1 s t\nchannel e1 s t\n"
        with pytest.raises(NetworkFormatError, match="duplicate"):
            network_from_text(text)

    def test_reserved_channel_id(self):
        text = "node s source\nnode t sink\nchannel d1 s t\n"
        with pytest.raises(NetworkFormatError, match="reserved"):
            network_from_text(text)

    def test_rate_hint_round_trip(self):
        net = plait(2, 1)
        assert network_from_text(network_to_text(net)).rate_hint == 2

    @pytest.mark.parametrize("value", ["0", "00", "01", "-1", "+2", "\u00b2", "\u0663", "2.0", "x"])
    def test_rate_must_be_positive_ascii_integer(self, value):
        text = f"node s source\nnode t sink\nchannel e1 s t\nrate {value}\n"
        with pytest.raises(NetworkFormatError, match="line 4"):
            network_from_text(text)

    def test_rate_multi_digit(self):
        text = "node s source\nnode t sink\nchannel e1 s t\nrate 10\n"
        assert network_from_text(text).rate_hint == 10

    @settings(max_examples=25, deadline=None)
    @given(w=st.integers(1, 4), r=st.integers(0, 4))
    def test_round_trip_property(self, w, r):
        net = plait(w, r)
        assert network_from_text(network_to_text(net)) == net


class TestMinCutAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(8))
    def test_small_random_dags(self, seed):
        from rlncfail.flowpaths import min_cut

        net = random_dag(3, 1 + seed % 2, 0.5, seed=seed)
        if len(net.channels) <= 14:
            assert min_cut(net, "t") == brute_force_min_cut(net, "t")
