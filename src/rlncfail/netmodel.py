"""Single-source multicast networks.

A network is a finite acyclic directed multigraph with one source node, at
least one sink, and unit-capacity channels.  Parallel channels between the
same node pair are allowed, so cuts and paths everywhere are sets/sequences
of channel ids, never endpoint pairs.

A `Network` is checked, ordered and compiled once, when it is built:
construction raises NetworkValidationError on an illegal network, so every
built network is legal and carries its topological order and an integer view
of itself.  Do not mutate one afterwards.

The source's inputs are modeled as w imaginary channels d1..dw that carry the
raw messages; they are not stored on the Network (they depend on the chosen
rate), but ids of that form are reserved for them.
"""

from __future__ import annotations

import heapq
import io
import re
from collections.abc import Iterable
from dataclasses import dataclass

from .galois import uniform_columns

SOURCE = "source"
INTERNAL = "internal"
SINK = "sink"
_ROLES = (SOURCE, INTERNAL, SINK)

_IMAGINARY_ID = re.compile(r"^d[0-9]+$")
_RATE = re.compile(r"[1-9][0-9]*")

MAX_GENERATED = 1 << 20  # plait channels, random-DAG pairs plus w, nodes or channels of a file


class NetworkFormatError(ValueError):
    """Malformed network file; carries the line number when known."""


class NetworkValidationError(ValueError):
    """Structurally parseable network that violates a model invariant."""

    def __init__(self, violations: tuple[str, ...]):
        super().__init__("invalid network: " + "; ".join(violations))
        self.violations = violations


@dataclass(frozen=True)
class Channel:
    id: str
    tail: str
    head: str


@dataclass
class Network:
    """A legal network in a fixed topological order; do not mutate it.

    nodes maps node id -> role ("source" | "internal" | "sink").  Channels
    are kept sorted by id, which is the canonical order used everywhere.
    Construction raises NetworkValidationError listing every violated
    invariant, and sets `order` (the nodes with every channel going forward,
    ties broken by smallest node id), `source`, `sinks` and `internal_nodes`.

    It also sets the integer view the graph algorithms run on: node i is
    `order[i]` and channel j is `channels[j]`, so index order is topological
    order for nodes and id order for channels.  `index` maps a node id to
    its index, `tail[j]`/`head[j]` are channel j's end nodes, and
    `outs[i]`/`ins[i]` are node i's out- and in-channels, ascending.
    `min_cuts` maps a sink id to its min-cut once `flowpaths.min_cut` has
    computed it, so every caller shares one max-flow per sink.
    """

    nodes: dict[str, str]
    channels: list[Channel]
    rate_hint: int | None = None

    def __post_init__(self) -> None:
        self.channels = sorted(self.channels, key=lambda c: c.id)
        self._by_id = {c.id: j for j, c in enumerate(self.channels)}  # id -> index
        self._ins: dict[str, list[Channel]] = {n: [] for n in self.nodes}
        self._outs: dict[str, list[Channel]] = {n: [] for n in self.nodes}
        for c in self.channels:
            if c.head in self._ins:
                self._ins[c.head].append(c)
            if c.tail in self._outs:
                self._outs[c.tail].append(c)
        order = self._kahn_order()
        violations = self._violations(order)
        if violations:
            raise NetworkValidationError(violations)
        self.order = tuple(order)
        self.source = next(n for n, role in self.nodes.items() if role == SOURCE)
        self.sinks = frozenset(n for n, role in self.nodes.items() if role == SINK)
        self.internal_nodes = frozenset(n for n, role in self.nodes.items() if role == INTERNAL)
        self.index = {n: i for i, n in enumerate(order)}
        self.tail = tuple(self.index[c.tail] for c in self.channels)
        self.head = tuple(self.index[c.head] for c in self.channels)
        self.outs = tuple(tuple(self._by_id[c.id] for c in self._outs[n]) for n in order)
        self.ins = tuple(tuple(self._by_id[c.id] for c in self._ins[n]) for n in order)
        self.min_cuts: dict[str, int] = {}

    def channel(self, cid: str) -> Channel:
        return self.channels[self._by_id[cid]]

    def reaching(self, t: int) -> list[bool]:
        """reach[i]: node i reaches node t on the integer view (t reaches
        itself); one pass against the topological order."""
        reach = [False] * len(self.order)
        reach[t] = True
        for i in reversed(range(t)):
            reach[i] = any(reach[self.head[j]] for j in self.outs[i])
        return reach

    def in_channels(self, node: str) -> list[Channel]:
        return self._ins.get(node, [])

    def out_channels(self, node: str) -> list[Channel]:
        return self._outs.get(node, [])

    def _kahn_order(self) -> list[str]:
        """Nodes so that every channel goes forward, smallest ready node id
        first; nodes on or behind a cycle are left out."""
        indeg = {n: 0 for n in self.nodes}
        for c in self.channels:
            if c.head in indeg and c.tail in indeg:
                indeg[c.head] += 1
        ready = [n for n, d in indeg.items() if d == 0]
        heapq.heapify(ready)
        order: list[str] = []
        while ready:
            u = heapq.heappop(ready)
            order.append(u)
            for c in self._outs[u]:
                if c.head in indeg:
                    indeg[c.head] -= 1
                    if indeg[c.head] == 0:
                        heapq.heappush(ready, c.head)
        return order

    def _cycle(self, leftover: set[str]) -> list[str]:
        """A node cycle among the nodes the order left out, starting and
        ending at its smallest node id.  Each of them has an in-channel from
        another, so walking in-channels back from the smallest repeats a node."""
        walk = [min(leftover)]
        at = {walk[0]: 0}
        while True:
            tail = next(c.tail for c in self._ins[walk[-1]] if c.tail in leftover)
            if tail in at:
                break
            at[tail] = len(walk)
            walk.append(tail)
        cycle = walk[at[tail]:][::-1]
        k = cycle.index(min(cycle))
        return cycle[k:] + cycle[: k + 1]

    def _violations(self, order: list[str]) -> tuple[str, ...]:
        """Every violated model invariant, given the topological pass."""
        found: list[str] = []
        roles = list(self.nodes.values())
        for n, role in self.nodes.items():
            if role not in _ROLES:
                found.append(f"node {n} has unknown role {role!r}")
        n_src = roles.count(SOURCE)
        if n_src != 1:
            found.append(f"expected exactly one source node, found {n_src}")
        if roles.count(SINK) == 0:
            found.append("network has no sink node")
        seen_ids: set[str] = set()
        for c in self.channels:
            if c.id in seen_ids:
                found.append(f"duplicate channel id {c.id}")
            seen_ids.add(c.id)
            if _IMAGINARY_ID.match(c.id):
                found.append(f"channel id {c.id} is reserved for imaginary source inputs")
            if c.tail == c.head:
                found.append(f"channel {c.id} is a self-loop at {c.tail}")
            for end, what in ((c.tail, "tail"), (c.head, "head")):
                if end not in self.nodes:
                    found.append(f"channel {c.id} has dangling {what} {end}")
            if self.nodes.get(c.head) == SOURCE:
                found.append(f"source node {c.head} has incoming channel {c.id}")
            if self.nodes.get(c.tail) == SINK:
                found.append(f"sink node {c.tail} has outgoing channel {c.id}")
        if len(order) < len(self.nodes):
            cycle = self._cycle(set(self.nodes) - set(order))
            found.append("channel graph has a cycle: " + " -> ".join(cycle))
        return tuple(found)


# --- canonical generators ---------------------------------------------------

def _chain(k: int) -> tuple[list[str], dict[str, str]]:
    """The node names s, i1..ik, t in order, and their roles."""
    names = ["s", *(f"i{j}" for j in range(1, k + 1)), "t"]
    return names, dict.fromkeys(names, INTERNAL) | {"s": SOURCE, "t": SINK}


def plait(w: int, r: int) -> Network:
    """Chain s, i1..ir, t with w parallel channels per stage ((r+1)*w total)."""
    if w < 1 or r < 0:
        raise ValueError("plait requires w >= 1 and r >= 0")
    if (r + 1) * w > MAX_GENERATED:
        raise ValueError(f"plait would have {(r + 1) * w} channels, above {MAX_GENERATED}")
    names, nodes = _chain(r)
    channels = [Channel(f"e{k * w + i:03d}", names[k], names[k + 1])
                for k in range(r + 1) for i in range(w)]
    return Network(nodes, channels, rate_hint=w)


def butterfly() -> Network:
    """The standard single-source two-sink butterfly (9 channels, min-cut 2)."""
    nodes = dict(s=SOURCE, u1=INTERNAL, u2=INTERNAL, b1=INTERNAL, b2=INTERNAL, t1=SINK, t2=SINK)
    ends = ("s u1", "s u2", "u1 b1", "u2 b1", "b1 b2", "u1 t1", "b2 t1", "u2 t2", "b2 t2")
    channels = [Channel(f"e{k}", *pair.split()) for k, pair in enumerate(ends, start=1)]
    return Network(nodes, channels, rate_hint=2)


def random_dag(num_internal: int, w: int, channel_density: float, seed: int) -> Network:
    """Seeded random DAG s -> i1..ik -> t with min-cut(s, t) >= w.

    Forward node pairs get a channel with the given probability, decided by
    one 32-bit draw per pair from stream 0 of `seed`; if the resulting
    max-flow falls short of w, direct s->t channels are added; each crosses
    every cut, so the min-cut becomes exactly w, which the network keeps.
    """
    if num_internal < 0 or w < 1:
        raise ValueError("num_internal must be >= 0 and w >= 1")
    if not 0.0 < channel_density <= 1.0:
        raise ValueError(f"channel_density must be in (0, 1], got {channel_density}")
    pairs = (num_internal + 2) * (num_internal + 1) // 2
    if pairs + w > MAX_GENERATED:
        raise ValueError(f"{pairs} node pairs plus rate {w} exceed {MAX_GENERATED}")
    names, nodes = _chain(num_internal)
    # density threshold in 2^-32 units, against one 32-bit draw per pair
    thresh = int(channel_density * (1 << 32))
    draws = iter(uniform_columns(1 << 32, seed, [0], pairs)[:, 0].tolist())
    channels: list[Channel] = []
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            if next(draws) < thresh:
                channels.append(Channel(f"e{len(channels):03d}", names[a], names[b]))
    net = Network(nodes, channels, rate_hint=w)
    from .flowpaths import min_cut  # deferred: flowpaths imports netmodel

    short = w - min_cut(net, "t")
    if short > 0:
        channels += [Channel(f"e{len(channels) + k:03d}", "s", "t") for k in range(short)]
        net = Network(nodes, channels, rate_hint=w)
        net.min_cuts["t"] = w
    return net


# --- line-oriented file format -----------------------------------------------
#
#   node <id> <source|internal|sink>
#   channel <id> <tail-id> <head-id>
#   rate <w>          (optional hint)
#
# '#' starts a comment; blank lines ignored; line order is irrelevant except
# that the canonical writer emits nodes topologically, then channels by id.

def network_from_text(text: str | Iterable[str]) -> Network:
    """Parse the file format from a string or from its lines (a text file
    object, say), which are taken one at a time: the line that crosses the
    MAX_GENERATED cap fails before any line after it is read."""
    nodes: dict[str, str] = {}
    raw_channels: dict[str, tuple[int, str, str]] = {}  # id -> line, tail, head
    rate_hint: int | None = None
    # split each given line again: a file breaks lines where its text would
    lines = text.splitlines() if isinstance(text, str) else (
        part for raw in text for part in raw.splitlines())
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "node":
            if len(parts) != 3:
                raise NetworkFormatError(f"line {lineno}: expected 'node <id> <role>'")
            nid, role = parts[1], parts[2]
            if role not in _ROLES:
                raise NetworkFormatError(f"line {lineno}: unknown role {role!r}")
            if nid in nodes:
                raise NetworkFormatError(f"line {lineno}: duplicate node id {nid}")
            nodes[nid] = role
        elif kind == "channel":
            if len(parts) != 4:
                raise NetworkFormatError(f"line {lineno}: expected 'channel <id> <tail> <head>'")
            cid = parts[1]
            if cid in raw_channels:
                raise NetworkFormatError(f"line {lineno}: duplicate channel id {cid}")
            if _IMAGINARY_ID.match(cid):
                raise NetworkFormatError(f"line {lineno}: channel id {cid} is reserved for imaginary inputs")
            raw_channels[cid] = (lineno, parts[2], parts[3])
        elif kind == "rate":
            if len(parts) != 2 or not _RATE.fullmatch(parts[1]):
                raise NetworkFormatError(f"line {lineno}: expected 'rate <w>' with w >= 1")
            rate_hint = int(parts[1])
        else:
            raise NetworkFormatError(f"line {lineno}: unknown directive {kind!r}")
        if max(len(nodes), len(raw_channels)) > MAX_GENERATED:
            raise NetworkFormatError(f"line {lineno}: more than {MAX_GENERATED} {kind}s")
    channels: list[Channel] = []
    for cid, (lineno, tail, head) in raw_channels.items():  # nodes may follow their channels
        for end in (tail, head):
            if end not in nodes:
                raise NetworkFormatError(f"line {lineno}: unknown node {end} in channel {cid}")
        channels.append(Channel(cid, tail, head))
    return Network(nodes, channels, rate_hint=rate_hint)


def network_to_text(net: Network) -> str:
    out = io.StringIO()
    for n in net.order:
        out.write(f"node {n} {net.nodes[n]}\n")
    for c in net.channels:  # already sorted by id
        out.write(f"channel {c.id} {c.tail} {c.head}\n")
    if net.rate_hint is not None:
        out.write(f"rate {net.rate_hint}\n")
    return out.getvalue()


def read_network(source) -> Network:
    """Read from a path or a text file object, line by line."""
    if hasattr(source, "read"):
        return network_from_text(source)
    with open(source, "r", encoding="utf-8") as fh:
        return network_from_text(fh)


def write_network(net: Network, dest) -> None:
    """Write canonical form to a path or a text file object."""
    text = network_to_text(net)
    if hasattr(dest, "write"):
        dest.write(text)
        return
    with open(dest, "w", encoding="utf-8") as fh:
        fh.write(text)
