"""Paths and cuts over unit-capacity channel graphs.

Everything the failure bounds need from graph theory: the min-cut capacity
between source and a sink, sets of channel-disjoint paths (max-flow plus a
deterministic decomposition), a search for the path set using the fewest
distinct internal nodes, and the out-part sizes of the cut advanced node by
node along a chosen path set, which are path counts: at internal node v the
cut channels entering v are exactly the m_v path channels whose head is v.

All functions are pure with respect to their immutable inputs, and every
tie is broken by smallest channel id so repeated runs give identical output.
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
    t: str,
    limit: int | None = None,
    removed: set[str] | frozenset[str] = frozenset(),
) -> tuple[int, set[str]]:
    """Unit-capacity max-flow from the source to t via augmenting paths,
    in the network without the removed channels.

    Returns (value, flow channel ids).  Augmentation explores forward unused
    channels before used reverse channels, each in channel-id order, so the
    result is deterministic.
    """
    s = net.source
    if t == s:
        raise ValueError("sink equals source")
    used: set[str] = set()
    value = 0
    while limit is None or value < limit:
        # iterative DFS for one augmenting path in the residual graph
        visited = {s}
        stack: list[tuple[str, list[tuple[str, bool]]]] = [(s, [])]
        found: list[tuple[str, bool]] | None = None
        while stack:
            node, trail = stack.pop()
            if node == t:
                found = trail
                break
            moves: list[tuple[str, str, bool]] = []
            for c in net.out_channels(node):
                if c.id not in used and c.id not in removed and c.head not in visited:
                    moves.append((c.id, c.head, True))
            for c in net.in_channels(node):
                if c.id in used and c.tail not in visited:
                    moves.append((c.id, c.tail, False))
            # stack is LIFO: push in reverse so smallest channel id pops first
            for cid, nxt, fwd in sorted(moves, reverse=True):
                if nxt not in visited:
                    visited.add(nxt)
                    stack.append((nxt, trail + [(cid, fwd)]))
        if found is None:
            break
        for cid, fwd in found:
            if fwd:
                used.add(cid)
            else:
                used.remove(cid)
        value += 1
    return value, used


def min_cut(net: Network, t: str) -> int:
    """Min-cut capacity between the source and t (0 when unreachable)."""
    value, _ = _max_flow(net, t)
    return value


def _decompose(net: Network, t: str, flow: set[str], w: int) -> tuple[tuple[str, ...], ...]:
    """Split an acyclic unit flow into w chained paths, smallest ids first."""
    remaining = set(flow)
    outs: dict[str, list[str]] = {}
    for cid in sorted(remaining):
        outs.setdefault(net.channel(cid).tail, []).append(cid)
    paths = []
    for _ in range(w):
        node = net.source
        path: list[str] = []
        while node != t:
            cid = next(c for c in outs[node] if c in remaining)
            remaining.remove(cid)
            path.append(cid)
            node = net.channel(cid).head
        paths.append(tuple(path))
    return tuple(paths)


def _path_set(net: Network, t: str, w: int, paths: tuple[tuple[str, ...], ...]) -> PathSet:
    pos = {n: i for i, n in enumerate(net.order)}
    nodes = {
        net.channel(cid).head
        for p in paths
        for cid in p[:-1]
    }
    ordered = tuple(sorted(nodes, key=lambda n: (pos[n], n)))
    return PathSet(sink=t, rate=w, paths=paths, internal_nodes=ordered)


def disjoint_paths(net: Network, t: str, w: int) -> PathSet:
    """w channel-disjoint paths from the source to t; deterministic.

    Raises InfeasibleRateError (carrying the achieved max-flow) when fewer
    than w disjoint paths exist.
    """
    if w < 1:
        raise ValueError(f"rate must be >= 1, got {w}")
    value, flow = _max_flow(net, t, limit=w)
    if value < w:
        full, _ = _max_flow(net, t)
        raise InfeasibleRateError(w, full, t)
    return _path_set(net, t, w, _decompose(net, t, flow, w))


# --- minimal-internal-node path sets -----------------------------------------

def _min_cost_paths(net: Network, t: str, w: int) -> PathSet:
    """Successive-shortest-path min-cost flow, one cost unit per entry into an
    internal node.  The returned set's distinct-node count is an upper bound
    on the true minimum (shared nodes are charged once per traversal)."""
    s = net.source
    internal = net.internal_nodes
    used: set[str] = set()
    for k in range(w):
        # Bellman-Ford on the residual graph; deterministic relaxation order.
        dist: dict[str, int] = {s: 0}
        pred: dict[str, tuple[str, str, bool]] = {}
        for _ in range(len(net.nodes)):
            changed = False
            for c in net.channels:
                cost = 1 if c.head in internal else 0
                if c.id not in used:
                    if c.tail in dist and dist[c.tail] + cost < dist.get(c.head, 1 << 60):
                        dist[c.head] = dist[c.tail] + cost
                        pred[c.head] = (c.tail, c.id, True)
                        changed = True
                else:
                    if c.head in dist and dist[c.head] - cost < dist.get(c.tail, 1 << 60):
                        dist[c.tail] = dist[c.head] - cost
                        pred[c.tail] = (c.head, c.id, False)
                        changed = True
            if not changed:
                break
        if t not in dist:
            raise InfeasibleRateError(w, k, t)
        node = t
        while node != s:
            prev, cid, fwd = pred[node]
            if fwd:
                used.add(cid)
            else:
                used.remove(cid)
            node = prev
    return _path_set(net, t, w, _decompose(net, t, used, w))


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
    count upper-bounds the true minimum.
    """
    if mode not in ("exact", "heuristic"):
        raise ValueError(f"mode must be 'exact' or 'heuristic', got {mode!r}")
    heur = _min_cost_paths(net, t, w)
    if mode == "heuristic":
        return MinInternalResult(heur, exact=False)

    s = net.source
    internal = net.internal_nodes
    best = {"r": heur.r, "paths": heur.paths}
    steps = 0

    def spend() -> None:
        nonlocal steps
        steps += 1
        if steps > budget:
            raise _SearchBudget()

    def extend(
        used: set[str],
        nodes: frozenset[str],
        done: list[tuple[str, ...]],
        path: list[str],
        node: str,
        min_first: str,
    ) -> None:
        """Grow the current path channel by channel; recurse into the next
        path on completion."""
        if node == t:
            done.append(tuple(path))
            choose_next(used, nodes, done, path[0])
            done.pop()
            return
        for c in net.out_channels(node):
            if c.id in used:
                continue
            if node == s and c.id <= min_first:
                continue  # paths ordered by first channel id: kill permutations
            spend()
            added = c.head in internal and c.head not in nodes
            if added and len(nodes) + 1 >= best["r"]:
                continue
            used.add(c.id)
            path.append(c.id)
            extend(used, nodes | {c.head} if added else nodes, done, path, c.head, min_first)
            path.pop()
            used.remove(c.id)

    def choose_next(
        used: set[str],
        nodes: frozenset[str],
        done: list[tuple[str, ...]],
        last_first: str,
    ) -> None:
        if len(done) == w:
            if len(nodes) < best["r"]:
                best["r"] = len(nodes)
                best["paths"] = tuple(done)
            return
        if len(nodes) >= best["r"]:
            return
        # feasibility: the untouched graph must still carry the missing flow
        value, _ = _max_flow(net, t, limit=w - len(done), removed=used)
        if value < w - len(done):
            return
        extend(used, nodes, done, [], s, last_first)

    try:
        choose_next(set(), frozenset(), [], "")
        exact = True
        paths = best["paths"]
    except (_SearchBudget, RecursionError):
        exact = False
        paths = best["paths"]
    ps = _path_set(net, t, w, tuple(sorted(paths)))
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
