"""Paths and cuts over unit-capacity channel graphs.

Everything the failure bounds need from graph theory: the min-cut capacity
between source and a sink, sets of channel-disjoint paths (max-flow plus a
deterministic decomposition), a search for the path set using the fewest
distinct internal nodes, and the out-part sizes of the cut advanced node by
node along a chosen path set, which are path counts: at internal node v the
cut channels entering v are exactly the m_v path channels whose head is v.

The fewest-nodes search is a branch-and-bound on an explicit stack.  It
walks only live channels, whose head reaches the sink: a path through any
other channel never finishes.  When a path is finished, the paths still
missing must end on distinct unused channels into the sink and start on
distinct unused live channels out of the source (after this path's first
one, as paths are ordered by first channel).  At each end, the fewest new
internal nodes whose channels, after the free ones, cover the paths missing
is a lower bound on what the set still adds; the search drops the branch
when the larger bound brings it to the best count so far.  Both prunes drop
only branches that hold no better set, so the search finds every
improvement in the same order and returns the set it would without them.
Before it starts another path, the channels no path uses yet must still
carry the paths missing.  A witness proves that: channel-disjoint paths
avoiding the finished ones, first the heuristic's set, later the
decomposition of the last feasibility flow.  The search runs a new max-flow
only when fewer witness paths than are missing avoid the path just finished.

The algorithms run on the network's integer view (see `netmodel.Network`)
and turn channel indices back into ids only for the public `PathSet`.  All
functions are pure with respect to their immutable inputs, and every tie is
broken by smallest channel index, which is smallest channel id, so repeated
runs give identical output.
"""

from __future__ import annotations

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
) -> tuple[int, set[int]]:
    """Unit-capacity max-flow from the source to node t via augmenting paths,
    in the network without the removed channels, on the integer view.

    Returns (value, flow channel indices).  Each search step tries the
    unused forward and used reverse channels in channel order, so the result
    is deterministic.
    """
    s = net.index[net.source]
    if t == s:
        raise ValueError("sink equals source")
    head, tail = net.head, net.tail
    used: set[int] = set()
    value = 0
    while limit is None or value < limit:
        # iterative DFS for one augmenting path in the residual graph
        pred = {s: (s, -1)}  # node -> (previous node, channel); also the visited set
        stack = [s]
        while stack:
            node = stack.pop()
            if node == t:
                break
            moves: list[tuple[int, int]] = []
            for j in net.outs[node]:
                if j not in used and j not in removed and head[j] not in pred:
                    moves.append((j, head[j]))
            for j in net.ins[node]:
                if j in used and tail[j] not in pred:
                    moves.append((j, tail[j]))
            # stack is LIFO: push in reverse so the smallest channel pops first
            for j, nxt in sorted(moves, reverse=True):
                if nxt not in pred:
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
    """Min-cut capacity between the source and t (0 when unreachable)."""
    return _max_flow(net, net.index[t])[0]


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

    Raises InfeasibleRateError (carrying the achieved max-flow) when fewer
    than w disjoint paths exist.
    """
    if w < 1:
        raise ValueError(f"rate must be >= 1, got {w}")
    ti = net.index[t]
    value, flow = _max_flow(net, ti, limit=w)
    if value < w:
        full, _ = _max_flow(net, ti)
        raise InfeasibleRateError(w, full, t)
    return _path_set(net, t, w, _decompose(net, ti, flow, w))


# --- minimal-internal-node path sets -----------------------------------------

def _min_cost_paths(net: Network, t: str, w: int) -> tuple[tuple[int, ...], ...]:
    """Successive-shortest-path min-cost flow, one cost unit per entry into an
    internal node, as channel-index paths.  The set's distinct-node count is
    an upper bound on the true minimum (shared nodes are charged once per
    traversal)."""
    s, ti = net.index[net.source], net.index[t]
    internal = {net.index[v] for v in net.internal_nodes}
    inf = 1 << 60
    used: set[int] = set()
    # relax channels by tail in topological order (stable, so ties go to the
    # smallest channel): one pass settles every forward channel
    relax = sorted(range(len(net.channels)), key=net.tail.__getitem__)
    for k in range(w):
        # Bellman-Ford on the residual graph; deterministic relaxation order.
        dist = [inf] * len(net.order)
        dist[s] = 0
        pred: dict[int, tuple[int, int]] = {}
        for _ in range(len(net.order)):
            changed = False
            for j in relax:
                a, b = net.tail[j], net.head[j]
                cost = 1 if b in internal else 0
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


def _new_ends(ends: list[int], internal: set[int], nodes: frozenset[int], need: int) -> float:
    """Fewest internal nodes outside `nodes` that, with the free ends, give
    `need` of the channels whose end nodes are listed in `ends`: a channel
    ending at s, a sink or a node in `nodes` is free, then new nodes are
    taken by most channels first.  inf when all of them fall short."""
    new = [v for v in ends if v in internal and v not in nodes]
    need -= len(ends) - len(new)
    taken = 0
    if need > 0:
        for c in sorted(Counter(new).values(), reverse=True):
            need -= c
            taken += 1
            if need <= 0:
                break
    return taken if need <= 0 else math.inf


def min_internal_paths(
    net: Network,
    t: str,
    w: int,
    mode: str = "exact",
    budget: int = 10**6,
) -> MinInternalResult:
    """Path set minimizing the number of distinct internal nodes.

    mode="exact" runs a branch-and-bound over all channel-disjoint path
    sets (seeded with the heuristic answer); if the step budget runs out,
    the best set found so far is returned with exact=False.  A step is one
    live channel tried.  The prunes (see the module docstring) cut only
    branches without a better set, so a search takes fewer steps than it
    would without them and returns the same set: 12 on the butterfly's t1,
    42,242 on random_dag(30, 6, 0.3, seed=2).  mode="heuristic"
    returns the min-cost-flow answer directly (exact=False), whose node
    count upper-bounds the true minimum.  Both run on the integer view.
    """
    if mode not in ("exact", "heuristic"):
        raise ValueError(f"mode must be 'exact' or 'heuristic', got {mode!r}")
    heur = _min_cost_paths(net, t, w)
    if mode == "heuristic":
        return MinInternalResult(_path_set(net, t, w, heur), exact=False)

    s, ti = net.index[net.source], net.index[t]
    head, tail = net.head, net.tail
    reach = net.reaching(ti)
    outs = [tuple(j for j in js if reach[head[j]]) for js in net.outs]  # live channels
    into_t = net.ins[ti]
    internal = {net.index[v] for v in net.internal_nodes}
    best_r, best_paths = _path_set(net, t, w, heur).r, heur
    used: set[int] = set()  # channels of the finished paths and the current one
    done: list[tuple[int, ...]] = []  # the finished paths
    path: list[int] = []  # the current path
    witness = [heur]  # per finished-path count: disjoint paths avoiding them
    # frames (node, its untried out-channels, internal nodes so far, least
    # first channel, which binds only at the source)
    stack = [(s, iter(outs[s]), frozenset(), 0)] if best_r else []
    steps = 0
    while stack:
        node, chans, nodes, first = stack[-1]
        for j in chans:
            if j in used or j < first:
                continue  # paths ordered by first channel: kill permutations
            steps += 1
            if steps > budget:
                stack.clear()
                break
            h = head[j]
            grown = nodes
            if h in internal and h not in nodes:
                if len(nodes) + 1 >= best_r:
                    continue
                grown = nodes | {h}
            used.add(j)
            path.append(j)
            if h != ti:
                stack.append((h, iter(outs[h]), grown, 0))
                break
            need = w - len(done) - 1
            slack = best_r - len(grown)  # nodes a better set may still add
            if not need:
                if slack > 0:
                    best_r, best_paths = len(grown), (*done, tuple(path))
            elif (
                # the missing paths end on distinct unused channels into t
                # and start on distinct unused live channels out of s after
                # this path's first one: either end may need too many nodes
                slack > 0
                and _new_ends([tail[c] for c in into_t if c not in used],
                              internal, grown, need) < slack
                and _new_ends([head[c] for c in outs[s] if c > path[0] and c not in used],
                              internal, grown, need) < slack
            ):
                # feasibility: the unused channels must still carry `need`
                # paths; enough witness paths avoiding this one prove it
                fits = [p for p in witness[-1] if used.isdisjoint(p)]
                if len(fits) < need:
                    value, flow = _max_flow(net, ti, limit=need, removed=used)
                    fits = _decompose(net, ti, flow, need) if value == need else []
                if fits:
                    witness.append(fits)
                    done.append(tuple(path))
                    stack.append((s, iter(outs[s]), grown, path[0] + 1))
                    path = []
                    break
            used.remove(path.pop())
        else:
            stack.pop()
            if node == s:  # back into the finished path this one followed
                if not done:
                    break
                witness.pop()
                path = list(done.pop())
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
    through = Counter(net.channel(cid).head for cid in ps.channel_ids)
    return (0,) + tuple(ps.rate - through[v] for v in ps.internal_nodes)
