"""Paths and cuts over unit-capacity channel graphs.

Everything the failure bounds need from graph theory: the min-cut capacity
between source and a sink, sets of channel-disjoint paths (max-flow plus a
deterministic decomposition), a search for the path set using the fewest
distinct internal nodes, and the out-part sizes of the cut advanced node by
node along a chosen path set, which are path counts: at internal node v the
cut channels entering v are exactly the m_v path channels whose head is v.

Every path set holds the internal nodes that lie on every source-sink path,
so their count is a floor on the fewest nodes; when the heuristic's set has
no more, it is exact and the search takes no step (every plait, at any
length).  Otherwise the fewest-nodes search is a branch-and-bound on an
explicit stack over live channels, whose head reaches the sink (a path
through any other channel never finishes), with one node set that
backtracking undoes.  The paths still missing end on distinct unused
channels into the sink and start on distinct unused live channels out of
the source after the current path's first one (paths are ordered by first
channel).  At each end, the fewest new internal nodes whose channels, after
the free ones, cover the paths missing bound what the set still adds
(memoized on masks of the ends).  Only a node next to both the source and
the sink can count at both ends, so the set adds at least the sum of the
two bounds less the nodes of that kind not yet in it.  The search checks
this bound when a path enters a new node or is finished, and drops the
branch when it brings the set to the best count so far.  The prunes drop
only branches that hold no better set, so the search finds every
improvement in the same order and returns the same set.  Before it starts
another path, the unused channels must still carry the paths missing: the
heuristic's paths that avoid every used channel prove it when there are
enough of them, else a max-flow grows from them.

The algorithms run on the network's integer view (see `netmodel.Network`),
the max-flow's DFS on the residual arcs compiled there, and turn channel
indices back into ids only for the public `PathSet`.  All functions are
pure with respect to their immutable inputs (`min_cut` keeps its value and
flow on the network, and the disjoint paths at rate C_t split that flow,
which changes no result), and every tie is broken by smallest channel
index, which is smallest channel id, so repeated runs give identical output.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

from .netmodel import Network


class InfeasibleRateError(ValueError):
    """Requested rate exceeds the max-flow between source and sink."""

    def __init__(self, requested: int, achieved: int, sink: str):
        super().__init__(
            f"rate {requested} is infeasible for sink {sink}: max-flow is {achieved}"
        )
        self.requested = requested
        self.achieved = achieved
        self.sink = sink


@dataclass(frozen=True)
class PathSet:
    """w channel-disjoint source->sink paths plus their internal nodes.

    paths[i] is a chained channel-id sequence from the source to the sink;
    internal_nodes holds the distinct internal nodes on the union of the
    paths, sorted by the network topological order.
    """

    sink: str
    rate: int
    paths: tuple[tuple[str, ...], ...]
    internal_nodes: tuple[str, ...]

    @property
    def r(self) -> int:
        return len(self.internal_nodes)

    @property
    def channel_ids(self) -> frozenset[str]:
        return frozenset(c for p in self.paths for c in p)


@dataclass(frozen=True)
class MinInternalResult:
    """Result of the minimal-internal-node search; exact=False marks a
    heuristic (upper-bound) answer after a budget fallback."""

    paths: PathSet
    exact: bool


def _max_flow(
    net: Network,
    t: int,
    limit: int | None = None,
    removed: set[int] | frozenset[int] = frozenset(),
    start: list[tuple[int, ...]] | tuple[()] = (),
) -> tuple[int, set[int]]:
    """Unit-capacity max-flow from the source to node t via augmenting paths,
    in the network without the removed channels, on the integer view.

    Returns (value, flow channel indices).  The flow grows from `start`,
    disjoint paths to t avoiding the removed channels (any valid flow reaches
    the same value), trying each node's residual arcs `net.arcs` in order.
    """
    s = net.index[net.source]
    if t == s:
        raise ValueError("sink equals source")
    arcs = net.arcs
    used = {j for p in start for j in p}
    value = len(start)
    while limit is None or value < limit:
        # iterative DFS for one augmenting path in the residual graph
        pred = {s: (s, -1)}  # node -> (previous node, channel); also the visited set
        stack = [s]
        while stack:
            node = stack.pop()
            if node == t:
                break
            # stack is LIFO: arcs go by descending channel, so the smallest pops first
            for j, nxt, forward in arcs[node]:
                if nxt not in pred and (j not in used and j not in removed if forward else j in used):
                    pred[nxt] = (node, j)
                    stack.append(nxt)
        else:
            break
        while node != s:  # forward channels join the flow, reverse ones leave it
            node, j = pred[node]
            used ^= {j}
        value += 1
    return value, used


def min_cut(net: Network, t: str) -> int:
    """Min-cut capacity between the source and t (0 when unreachable).

    One unlimited max-flow per sink, kept in `net.min_cuts` (its value) and
    `net.min_flows` (its flow), which the network's immutability keeps valid.
    """
    if t not in net.min_cuts:
        net.min_cuts[t], net.min_flows[t] = _max_flow(net, net.index[t])
    return net.min_cuts[t]


def _decompose(net: Network, t: int, flow: set[int], w: int) -> tuple[tuple[int, ...], ...]:
    """Split an acyclic unit flow into w chained paths, smallest channels first."""
    remaining = set(flow)
    paths = []
    for _ in range(w):
        node = net.index[net.source]
        path: list[int] = []
        while node != t:
            j = next(j for j in net.outs[node] if j in remaining)
            remaining.remove(j)
            path.append(j)
            node = net.head[j]
        paths.append(tuple(path))
    return tuple(paths)


def _path_set(net: Network, t: str, w: int, paths: tuple[tuple[int, ...], ...]) -> PathSet:
    """The public PathSet of channel-index paths; its internal nodes are the
    heads of all but each path's last channel, in topological order."""
    nodes = sorted({net.head[j] for p in paths for j in p[:-1]})
    ids = tuple(tuple(net.channels[j].id for j in p) for p in paths)
    return PathSet(t, w, ids, tuple(net.order[i] for i in nodes))


def disjoint_paths(net: Network, t: str, w: int) -> PathSet:
    """w channel-disjoint paths from the source to t; deterministic.

    A flow limited to w, decomposed: at w = C_t the kept min-cut flow, whose
    unlimited run made the same w augmentations.  Raises InfeasibleRateError
    (carrying the achieved max-flow) when fewer than w disjoint paths exist.
    """
    if w < 1:
        raise ValueError(f"rate must be >= 1, got {w}")
    ti = net.index[t]
    value, flow = net.min_cuts.get(t), net.min_flows.get(t)
    if value != w or flow is None:
        value, flow = _max_flow(net, ti, limit=w)
    if value < w:
        raise InfeasibleRateError(w, min_cut(net, t), t)
    return _path_set(net, t, w, _decompose(net, ti, flow, w))


# --- minimal-internal-node path sets -----------------------------------------

def _min_cost_paths(net: Network, t: str, w: int) -> tuple[tuple[int, ...], ...]:
    """Successive-shortest-path min-cost flow, one cost unit per entry into an
    internal node, as channel-index paths.  The set's distinct-node count is
    an upper bound on the true minimum (shared nodes are charged once per
    traversal)."""
    s, ti = net.index[net.source], net.index[t]
    inf = 1 << 60
    used: set[int] = set()
    # (channel, tail, head, cost) by tail in topological order (stable, so
    # ties go to the smallest channel): one pass settles every forward channel
    relax = [(j, net.tail[j], net.head[j], int(net.order[net.head[j]] in net.internal_nodes))
             for j in sorted(range(len(net.channels)), key=net.tail.__getitem__)]
    for k in range(w):
        # Bellman-Ford on the residual graph; deterministic relaxation order.
        dist = [inf] * len(net.order)
        dist[s] = 0
        pred: dict[int, tuple[int, int]] = {}
        for _ in range(len(net.order)):
            changed = False
            for j, a, b, cost in relax:
                if j in used:  # the residual channel runs backwards
                    a, b, cost = b, a, -cost
                if dist[a] < inf and dist[a] + cost < dist[b]:
                    dist[b] = dist[a] + cost
                    pred[b] = (a, j)
                    changed = True
            if not changed:
                break
        if dist[ti] == inf:
            raise InfeasibleRateError(w, k, t)
        node = ti
        while node != s:
            node, j = pred[node]
            used ^= {j}
    return _decompose(net, ti, used, w)


def _new_ends(ends: list[tuple[int, int]], used: set[int], internal: set[int],
              nodes: set[int], need: int) -> float:
    """Fewest internal nodes outside `nodes` that, with the free ends, give
    `need` of the channels outside `used` in the (channel, end node) list
    `ends`: a channel ending at s, a sink or a node in `nodes` is free, then
    new nodes go by most channels first; inf when all fall short."""
    new: dict[int, int] = {}  # new end node -> its unused channels
    for j, v in ends:
        if j not in used:
            if v in internal and v not in nodes:
                new[v] = new.get(v, 0) + 1
            else:
                need -= 1
    if need <= 0:
        return 0
    for taken, c in enumerate(sorted(new.values(), reverse=True), 1):
        need -= c
        if need <= 0:
            return taken
    return math.inf


def _floor(net: Network, s: int, t: int, reach: list[bool]) -> int:
    """The internal nodes that lie on every s-t path, which every path set
    holds; t must be reachable from s.  Every s-t path steps onto or jumps
    over each node between s and t in topological index, so node v is one
    exactly when no live channel a->b (a reached from s, b reaching t) has
    a < v < b, which would start a path around v.  One difference-array
    sweep over the channels counts them."""
    reached = [False] * len(net.order)
    reached[s] = True
    for i in range(s, t):
        if reached[i]:
            for j in net.outs[i]:
                reached[net.head[j]] = True
    jumps = [0] * (t + 1)  # live channels over each index, as differences
    for a, b in zip(net.tail, net.head):
        if reached[a] and reach[b]:
            jumps[a + 1] += 1
            jumps[b] -= 1
    return sum(not over for over in itertools.accumulate(jumps[s + 1:t]))


def min_internal_paths(
    net: Network,
    t: str,
    w: int,
    budget: int = 10**6,
) -> MinInternalResult:
    """Path set minimizing the number of distinct internal nodes.

    A branch-and-bound over all channel-disjoint path sets, on the integer
    view, seeded with the min-cost-flow heuristic's set, unless that set has
    no more nodes than lie on every path.  If the step budget runs out, the
    best set found so far is returned with exact=False.  A step is one live
    channel tried: 0 on plait(3, 15), 6 on the butterfly's t1, 10 with no
    feasibility max-flow on random_dag(30, 6, 0.3, seed=2), and 1,297 with
    57 on random_dag(25, 6, 0.3, seed=2).  So budget=0 gives the heuristic's
    set, whose node count upper-bounds the true minimum, flagged exact only
    when that count is the floor.
    """
    heur = _min_cost_paths(net, t, w)
    s, ti = net.index[net.source], net.index[t]
    head, tail = net.head, net.tail
    reach = net.reaching(ti)
    outs = [tuple(j for j in js if reach[head[j]]) for js in net.outs]  # live channels
    internal = {net.index[v] for v in net.internal_nodes}
    # (channel, end node) into t, ends[:split], then live out of s, ends[after[j]:]
    # after j; end i is bit i of the used-end and on-set masks that key the memo
    split = len(net.ins[ti])
    ends = [(j, tail[j]) for j in net.ins[ti]] + [(j, head[j]) for j in outs[s]]
    after = {j: k for k, j in enumerate(outs[s], split + 1)}
    bits, node_bits = [0] * len(tail), [0] * len(net.order)
    for i, (j, v) in enumerate(ends):
        bits[j] |= 1 << i
        node_bits[v] |= 1 << i
    # internal nodes at both ends, heading a live channel out of s and tailing
    # one into t: the only new nodes that can count toward both bounds
    both = {head[j] for j in outs[s]} & {tail[j] for j in net.ins[ti]} & internal
    memo: dict[tuple[int, int, int, int], float] = {}
    def bound(a: int, b: int, need: int, used_ends: int) -> float:
        m = (1 << b) - (1 << a)
        key = (a, need, used_ends & m, on_set & m)
        if key not in memo:
            memo[key] = _new_ends(ends[a:b], used, internal, nodes, need)
        return memo[key]
    def lower(first: int, need_t: int, need_s: int, used_ends: int) -> float:
        # new nodes that end the missing paths into t and start the paths
        # not yet begun out of s after `first`, a node of `both` once
        zb = bound(0, split, need_t, used_ends)
        sb = bound(after[first], len(ends), need_s, used_ends)
        return max(zb, sb, zb + sb - len(both - nodes))
    best_r, best_paths = _path_set(net, t, w, heur).r, heur
    used: set[int] = set()  # channels of the finished paths and the current one
    nodes: set[int] = set()  # their internal nodes
    done: list[tuple[int, ...]] = []  # the finished paths
    path: list[int] = []  # the current path
    done_ends = on_set = 0  # the bits of the finished paths' ends and of the ends on `nodes`
    # frames (node, its untried out-channels, whether entering it added it to
    # nodes, least first channel, which binds only at the source)
    # no set has fewer nodes than those on every s-t path
    stack = [(s, iter(outs[s]), False, 0)] if best_r > _floor(net, s, ti, reach) else []
    steps = 0
    while stack:
        node, chans, _, first = stack[-1]
        for j in chans:
            if j in used or j < first:
                continue  # paths ordered by first channel: kill permutations
            steps += 1
            if steps > budget:
                stack.clear()
                break
            h = head[j]
            new = h in internal and h not in nodes
            if new:
                # the set, with the new nodes that end the paths missing (this
                # one too, no end yet) and start those after it, must stay
                # below the best count
                nodes.add(h)
                on_set ^= node_bits[h]
                need = w - len(done)
                if lower(path[0] if path else j, need, need - 1, done_ends) >= best_r - len(nodes):
                    nodes.remove(h)
                    on_set ^= node_bits[h]
                    continue
            used.add(j)
            path.append(j)
            if h != ti:
                stack.append((h, iter(outs[h]), new, 0))
                break
            need = w - len(done) - 1
            slack = best_r - len(nodes)  # nodes a better set may still add
            if not need:
                if slack > 0:
                    best_r, best_paths = len(nodes), (*done, tuple(path))
            elif slack > 0 and (
                lower(path[0], need, need, done_ends | bits[path[0]] | bits[j]) < slack
            ):
                # feasibility: the unused channels must still carry `need`
                # paths; the heuristic's paths clear of `used` prove it, or
                # seed a max-flow when too few are
                fits = [p for p in heur if used.isdisjoint(p)][:need]
                if len(fits) == need or _max_flow(net, ti, need, used, fits)[0] == need:
                    done.append(tuple(path))
                    done_ends ^= bits[path[0]] | bits[j]
                    stack.append((s, iter(outs[s]), False, path[0] + 1))
                    path = []
                    break
            used.remove(path.pop())
        else:
            if stack.pop()[2]:  # entering it added the node
                nodes.remove(node)
                on_set ^= node_bits[node]
            if node == s:  # back into the finished path this one followed
                if not done:
                    break
                path = list(done.pop())
                done_ends ^= bits[path[0]] | bits[path[-1]]
            used.remove(path.pop())
    ps = _path_set(net, t, w, tuple(sorted(best_paths)))
    return MinInternalResult(ps, exact=steps <= budget)


# --- cut profile ---------------------------------------------------------------

def cut_out_profile(net: Network, ps: PathSet) -> tuple[int, ...]:
    """Out-part sizes |CUT^out_k|, k = 0..r, of the cut advanced along ps.

    Every cut channel enters the source, so out_0 = 0; at internal node v
    the entering cut channels are the path channels with head v, so
    out_v = w - m_v with m_v the number of paths through v.  Listed in the
    path set's node order; any admissible order gives the same multiset.
    """
    m = Counter(net.channel(cid).head for cid in ps.channel_ids)
    return (0,) + tuple(ps.rate - m[v] for v in ps.internal_nodes)
