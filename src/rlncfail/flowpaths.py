"""Paths and cuts over unit-capacity channel graphs.

Everything the failure bounds need from graph theory: the min-cut capacity
between source and a sink, sets of channel-disjoint paths (max-flow plus a
deterministic decomposition), a search for the path set using the fewest
distinct internal nodes, and the out-part sizes of the cut advanced node by
node along a chosen path set, which are path counts: at internal node v the
cut channels entering v are exactly the m_v path channels whose head is v.

The algorithms run on the network's integer view (see `netmodel.Network`)
and turn channel indices back into ids only for the public `PathSet`.  All
functions are pure with respect to their immutable inputs, and every tie is
broken by smallest channel index, which is smallest channel id, so repeated
runs give identical output.
"""

from __future__ import annotations

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
        visited = {s}
        stack: list[tuple[int, list[int]]] = [(s, [])]
        found: list[int] | None = None
        while stack:
            node, trail = stack.pop()
            if node == t:
                found = trail
                break
            moves: list[tuple[int, int]] = []
            for j in net.outs[node]:
                if j not in used and j not in removed and head[j] not in visited:
                    moves.append((j, head[j]))
            for j in net.ins[node]:
                if j in used and tail[j] not in visited:
                    moves.append((j, tail[j]))
            # stack is LIFO: push in reverse so the smallest channel pops first
            for j, nxt in sorted(moves, reverse=True):
                if nxt not in visited:
                    visited.add(nxt)
                    stack.append((nxt, trail + [j]))
        if found is None:
            break
        used ^= set(found)  # forward channels join the flow, reverse ones leave it
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
    for k in range(w):
        # Bellman-Ford on the residual graph; deterministic relaxation order.
        dist = [inf] * len(net.order)
        dist[s] = 0
        pred: dict[int, tuple[int, int]] = {}
        for _ in range(len(net.order)):
            changed = False
            for j, (a, b) in enumerate(zip(net.tail, net.head)):
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


class _SearchBudget(Exception):
    pass


def min_internal_paths(
    net: Network,
    t: str,
    w: int,
    mode: str = "exact",
    budget: int = 10**6,
) -> MinInternalResult:
    """Path set minimizing the number of distinct internal nodes.

    mode="exact" runs a branch-and-bound over all channel-disjoint path
    sets (seeded with the heuristic answer); if the step budget runs out, or
    a path outgrows the recursion limit, the best set found so far is
    returned with exact=False.  mode="heuristic"
    returns the min-cost-flow answer directly (exact=False), whose node
    count upper-bounds the true minimum.  Both run on the integer view.
    """
    if mode not in ("exact", "heuristic"):
        raise ValueError(f"mode must be 'exact' or 'heuristic', got {mode!r}")
    heur = _min_cost_paths(net, t, w)
    if mode == "heuristic":
        return MinInternalResult(_path_set(net, t, w, heur), exact=False)

    s, ti = net.index[net.source], net.index[t]
    internal = {net.index[v] for v in net.internal_nodes}
    best = {"r": _path_set(net, t, w, heur).r, "paths": heur}
    used: set[int] = set()  # channels of the finished paths and the current one
    done: list[tuple[int, ...]] = []  # the finished paths
    steps = 0

    def spend() -> None:
        nonlocal steps
        steps += 1
        if steps > budget:
            raise _SearchBudget()

    def extend(nodes: frozenset[int], path: list[int], node: int, first: int) -> None:
        """Grow the current path channel by channel, its first channel at
        least `first`; recurse into the next path on completion."""
        if node == ti:
            done.append(tuple(path))
            choose_next(nodes, path[0] + 1)
            done.pop()
            return
        for j in net.outs[node]:
            if j in used:
                continue
            if node == s and j < first:
                continue  # paths ordered by first channel: kill permutations
            spend()
            h = net.head[j]
            added = h in internal and h not in nodes
            if added and len(nodes) + 1 >= best["r"]:
                continue
            used.add(j)
            path.append(j)
            extend(nodes | {h} if added else nodes, path, h, first)
            path.pop()
            used.remove(j)

    def choose_next(nodes: frozenset[int], first: int) -> None:
        if len(done) == w:
            if len(nodes) < best["r"]:
                best["r"] = len(nodes)
                best["paths"] = tuple(done)
            return
        if len(nodes) >= best["r"]:
            return
        # feasibility: the untouched graph must still carry the missing flow
        value, _ = _max_flow(net, ti, limit=w - len(done), removed=used)
        if value < w - len(done):
            return
        extend(nodes, [], s, first)

    try:
        choose_next(frozenset(), 0)
        exact = True
    except (_SearchBudget, RecursionError):
        exact = False
    ps = _path_set(net, t, w, tuple(sorted(best["paths"])))
    return MinInternalResult(ps, exact=exact)


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
