"""Independent oracles used across the test suite.

Everything here is deliberately naive (brute-force enumeration, closed
forms computed from scratch) so that it cannot share a bug with the
library code paths it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from rlncfail.flowpaths import PathSet, _min_cost_paths, _path_set
from rlncfail.galois import FieldSpec, _prime_factors, uniform_columns
from rlncfail.netmodel import Network
from rlncfail.rlncsim import (
    _UNIT_TRIALS,
    _eliminate,
    _fan_in,
    _full_rank,
    _kernels,
    _matmul,
    coefficient_count,
    coefficient_slots,
)


@dataclass(frozen=True)
class ImaginaryInputs:
    """The rate-many imaginary source inputs d1..dw carrying messages X_1..X_w."""

    rate: int
    ids: tuple[str, ...]


def imaginary_inputs(rate: int) -> ImaginaryInputs:
    if rate < 1:
        raise ValueError(f"rate must be >= 1, got {rate}")
    return ImaginaryInputs(rate, tuple(f"d{i}" for i in range(1, rate + 1)))


def input_channel_ids(net: Network, node: str, rate: int) -> tuple[str, ...]:
    """In(node) as channel ids; for the source these are the imaginary inputs."""
    if node == net.source:
        return imaginary_inputs(rate).ids
    return tuple(c.id for c in net.in_channels(node))


def reaches(net: Network, t: str, removed: frozenset[str] = frozenset()) -> bool:
    """BFS reachability from the source to t, avoiding the removed channels."""
    seen = {net.source}
    frontier = [net.source]
    while frontier:
        node = frontier.pop()
        for c in net.out_channels(node):
            if c.id in removed or c.head in seen:
                continue
            if c.head == t:
                return True
            seen.add(c.head)
            frontier.append(c.head)
    return t in seen


def brute_force_min_cut(net: Network, t: str) -> int:
    """Smallest channel set whose removal disconnects source from t.
    Exponential; only for networks with a handful of channels."""
    ids = [c.id for c in net.channels]
    assert len(ids) <= 14, "brute force oracle limited to small networks"
    if not reaches(net, t):
        return 0
    for k in range(len(ids) + 1):
        for combo in combinations(ids, k):
            if not reaches(net, t, frozenset(combo)):
                return k
    return len(ids)


def all_simple_paths(net: Network, t: str) -> list[tuple[str, ...]]:
    """Every source->t channel path, by straightforward DFS."""
    out: list[tuple[str, ...]] = []

    def walk(node: str, trail: list[str]) -> None:
        if node == t:
            out.append(tuple(trail))
            return
        for c in net.out_channels(node):
            trail.append(c.id)
            walk(c.head, trail)
            trail.pop()

    walk(net.source, [])
    return out


def exhaustive_min_internal(net: Network, t: str, w: int) -> int:
    """Minimum distinct internal-node count over every w-set of
    channel-disjoint source->t paths, by full enumeration."""
    paths = all_simple_paths(net, t)
    internal = net.internal_nodes
    best = None
    for combo in combinations(paths, w):
        chans = [cid for p in combo for cid in p]
        if len(chans) != len(set(chans)):
            continue
        nodes = {
            net.channel(cid).head for p in combo for cid in p
        } & internal
        if best is None or len(nodes) < best:
            best = len(nodes)
    assert best is not None, "no channel-disjoint path set exists"
    return best


def subset_min_internal(net: Network, t: str, w: int) -> int:
    """R_t as the smallest set U of internal nodes whose subnetwork on
    U + {source, t} carries w channel-disjoint paths to t, trying every U by
    size with a breadth-first max-flow of its own on channel ids."""
    internal = sorted(net.internal_nodes)
    for size in range(len(internal) + 1):
        for chosen in combinations(internal, size):
            keep = set(chosen) | {net.source, t}
            chans = [c for c in net.channels if c.tail in keep and c.head in keep]
            flow: set[str] = set()
            for _ in range(w):
                pred = {net.source: None}  # node -> (previous node, channel)
                frontier = [net.source]
                while frontier and t not in pred:
                    node = frontier.pop(0)
                    for c in chans:
                        if c.tail == node and c.id not in flow and c.head not in pred:
                            pred[c.head] = (node, c.id)
                            frontier.append(c.head)
                        elif c.head == node and c.id in flow and c.tail not in pred:
                            pred[c.tail] = (node, c.id)
                            frontier.append(c.tail)
                if t not in pred:
                    break
                node = t
                while pred[node] is not None:
                    node, cid = pred[node]
                    flow ^= {cid}
            else:
                return size
    raise ValueError(f"no {w} channel-disjoint paths to {t}")


def reference_max_flow(
    net: Network,
    t: int,
    limit: int | None = None,
    removed: set[int] | frozenset[int] = frozenset(),
    start: list[tuple[int, ...]] | tuple[()] = (),
) -> tuple[int, set[int]]:
    """Unit-capacity max-flow from the source to node t via augmenting paths,
    in the network without the removed channels, on the integer view.

    `flowpaths._max_flow` as it was before each node's residual arcs were
    compiled on the network: this one sorts a node's moves at every DFS
    step, so the compiled routine must return the same flows.

    Returns (value, flow channel indices).  The flow grows from `start`,
    disjoint paths to t avoiding the removed channels (any valid flow reaches
    the same value), trying forward and reverse channels in channel order.
    """
    s = net.index[net.source]
    if t == s:
        raise ValueError("sink equals source")
    head, tail = net.head, net.tail
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
            moves = [(j, head[j]) for j in net.outs[node] if j not in used and j not in removed]
            moves += [(j, tail[j]) for j in net.ins[node] if j in used]
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


class _SearchBudget(Exception):
    pass


def recursive_min_internal_paths(
    net: Network, t: str, w: int, budget: int = 10**6
) -> tuple[PathSet, bool, int]:
    """The R_t branch-and-bound as plain recursion, with a max-flow at every
    feasibility check and no prune but the node count: the reference for
    `flowpaths.min_internal_paths`, whose prunes cut only branches without a
    better set, so it must return the same (paths, exact) whenever both
    finish, in no more steps.  Returns (paths, exact, steps)."""
    heur = _min_cost_paths(net, t, w)
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
        value, _ = reference_max_flow(net, ti, limit=w - len(done), removed=used)
        if value < w - len(done):
            return
        extend(nodes, [], s, first)

    try:
        choose_next(frozenset(), 0)
        exact = True
    except (_SearchBudget, RecursionError):
        exact = False
    return _path_set(net, t, w, tuple(sorted(best["paths"]))), exact, min(steps, budget)


@dataclass(frozen=True)
class CutSequence:
    """Cuts CUT_0..CUT_{r+1} for a path set, with per-step in/out partitions.

    cuts[0] is the imaginary input set, cuts[k+1] is cuts[k] with the
    channels entering the k-th processed node advanced to their successors
    on their paths.  in_parts[k]/out_parts[k] partition cuts[k] by membership
    in In(node k); both have length r+1 (steps k = 0..r, node 0 = source).
    """

    cuts: tuple[frozenset[str], ...]
    in_parts: tuple[frozenset[str], ...]
    out_parts: tuple[frozenset[str], ...]

    @property
    def out_sizes(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.out_parts)


def cut_sequence(net: Network, ps: PathSet, node_order: tuple[str, ...] | None = None) -> CutSequence:
    """Advance the per-path cut through the path set's internal nodes, one
    node at a time, as the paper constructs it.

    node_order overrides the canonical (topological) order of the internal
    nodes; it must be a linear extension of the path precedence or the
    advancement stalls, which is reported as a ValueError, as is a path that
    does not chain from the source to the sink.
    """
    w = ps.rate
    imag = imaginary_inputs(w).ids
    order = tuple(ps.internal_nodes) if node_order is None else tuple(node_order)
    if sorted(order) != sorted(ps.internal_nodes):
        raise ValueError("node_order must be a permutation of the path set's internal nodes")

    succ: dict[str, str | None] = {}
    for i, path in enumerate(ps.paths):
        node = net.source
        for j, cid in enumerate(path):
            c = net.channel(cid)
            if c.tail != node:
                raise ValueError(f"path {i} breaks its chain at channel {cid}")
            succ[cid] = path[j + 1] if j + 1 < len(path) else None
            node = c.head
        if node != ps.sink:
            raise ValueError(f"path {i} does not end at sink {ps.sink}")
        succ[imag[i]] = path[0]

    def head(cid: str) -> str:
        return net.source if cid in imag else net.channel(cid).head

    current = list(imag)
    cuts = [frozenset(current)]
    in_parts: list[frozenset[str]] = []
    out_parts: list[frozenset[str]] = []
    for node in (net.source,) + order:
        entering = frozenset(cid for cid in current if head(cid) == node)
        if not entering:
            raise ValueError(f"node order stalls at {node}: no cut channel enters it")
        in_parts.append(entering)
        out_parts.append(frozenset(current) - entering)
        for i, cid in enumerate(current):
            if cid in entering:
                nxt = succ[cid]
                if nxt is None:
                    raise ValueError(f"channel {cid} has no successor to advance to")
                current[i] = nxt
        cuts.append(frozenset(current))
    if cuts[-1] != frozenset(p[-1] for p in ps.paths):
        raise ValueError("cut advancement did not terminate on the final channels")
    return CutSequence(tuple(cuts), tuple(in_parts), tuple(out_parts))


def linear_extensions(net: Network, ps: PathSet, limit_nodes: int = 8):
    """Every ordering of the path set's internal nodes consistent with
    network reachability, by backtracking.  Limited to small node counts."""
    nodes = list(ps.internal_nodes)
    if len(nodes) > limit_nodes:
        raise ValueError(
            f"linear extension enumeration is limited to {limit_nodes} internal nodes"
        )
    reach: dict[str, set[str]] = {}
    for n in reversed(net.order):
        heads = {c.head for c in net.out_channels(n)}
        reach[n] = heads.union(*(reach[m] for m in heads))
    before = {v: {u for u in nodes if v in reach[u]} for v in nodes}

    def backtrack(placed: list[str], left: set[str]):
        if not left:
            yield tuple(placed)
            return
        for v in sorted(left):
            if before[v] <= set(placed):
                placed.append(v)
                left.remove(v)
                yield from backtrack(placed, left)
                left.add(v)
                placed.pop()

    yield from backtrack([], set(nodes))


def plait_failure_law(q: int, w: int, r: int) -> Fraction:
    """Closed form 1 - [prod_{i=1..w} (1 - q^-i)]^(r+1), computed from scratch."""
    stage = Fraction(1)
    for i in range(1, w + 1):
        stage *= Fraction(q**i - 1, q**i)
    return 1 - stage ** (r + 1)


def butterfly_failure_law(q: int) -> Fraction:
    """Closed form 1 - (q+1)(q-1)^6 / q^7 for the standard butterfly."""
    return 1 - Fraction((q + 1) * (q - 1) ** 6, q**7)


def phi_product(q: int, n: int) -> Fraction:
    """phi(q, n) as its defining product prod_{i=1..n} (1 - q^-i), one
    Fraction factor at a time; the reference for `bounds.phi`'s closed form."""
    out = Fraction(1)
    for i in range(1, n + 1):
        out *= 1 - Fraction(1, q**i)
    return out


def subspace_completion_success(q: int, n: int, k0: int) -> Fraction:
    """Probability that n - k0 uniform vectors from a spanning complement
    extend a k0-dimensional subspace to the full n-dimensional space.

    Equals phi(q, n - k0); whenever n > k0 the complement satisfies
    1/q <= 1 - result < 1/(q - 1), which is re-checked here.
    """
    if k0 < 0 or k0 > n:
        raise ValueError(f"need 0 <= k0 <= n, got k0={k0}, n={n}")
    out = phi_product(q, n - k0)
    if n > k0:
        miss = 1 - out
        if not (Fraction(1, q) <= miss < Fraction(1, q - 1)):
            raise AssertionError(f"completion bracket violated for q={q}, n-k0={n - k0}")
    return out


def field_pow(field: FieldSpec, a: int, e: int) -> int:
    """a^e by square-and-multiply over the field's `vmul`."""
    out = 1
    while e:
        if e & 1:
            out = int(field.vmul(out, a))
        a = int(field.vmul(a, a))
        e >>= 1
    return out


def reference_tables(field: FieldSpec) -> tuple[np.ndarray, np.ndarray]:
    """(exp, log) as `FieldSpec._tables` built them from a table of base-p
    digits, with multiplication by g an (m, m) matrix on digit rows and the
    smallest generator found by matrix powers.  The reference for `_tables`."""
    p, m, q, n = field.p, field.m, field.q, field.q - 1
    # digit table: row v holds v's m base-p digits, lowest first
    powers = p ** np.arange(m, dtype=np.int64)
    digits = np.arange(q, dtype=np.int64)[:, None] // powers % p
    poly = np.array(field.reduction_poly or (), dtype=np.int64)  # unused when m = 1

    def times(g: int) -> np.ndarray:
        # multiplication by g as an (m, m) map on digit rows: row j is g * x^j,
        # and row j + 1 is row j shifted up one digit with x^m reduced by poly
        rows = [digits[g]]
        for _ in range(m - 1):
            rows.append((np.concatenate(([0], rows[-1])) - rows[-1][-1] * poly)[:m] % p)
        return np.array(rows)

    def power(a: np.ndarray, e: int) -> np.ndarray:  # a^e, by square-and-multiply
        out = one
        while e:
            if e & 1:
                out = out @ a % p
            a, e = a @ a % p, e >> 1
        return out

    # g generates the group iff g^(n/r) != 1 for every prime r | n; take the smallest
    one, factors = times(1), _prime_factors(n)  # the map of 1 is the identity
    g_k = next(t for t in map(times, range(1, q))
               if all(power(t, n // r)[0] @ powers != 1 for r in factors))
    # powers of g twice over (log a + log b < 2n), exp[k:2k] = g^k * exp[:k] with g_k
    # the map of g^k, then the zero tail that log[0] = 2n reaches from any offset <= 2n
    exp = np.zeros(4 * n + 1, dtype=np.uint16)
    exp[0], k = 1, 1
    while k < n:
        exp[k : 2 * k] = digits[exp[:k]] @ g_k % p @ powers
        g_k, k = g_k @ g_k % p, 2 * k
    exp[n : 2 * n] = exp[:n]
    log = np.full(q, 2 * n, dtype=np.intp)
    log[exp[:n]] = np.arange(n)
    return exp, log


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_STREAM_SALT = 0xD2B74407B1CE6E93


def mix64(x: int) -> int:
    """SplitMix64 finalizer on a Python int."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class RandomStream:
    """The counter stream (seed, stream) one word at a time, in Python ints:
    word c = 1, 2, ... is mix64(key + GOLDEN * c).  `counter` is the number
    of words drawn so far."""

    def __init__(self, seed: int, stream: int = 0):
        k = mix64((seed + _GOLDEN) & _MASK64)
        self.key = mix64(k ^ (((stream + 1) * _STREAM_SALT) & _MASK64))
        self.counter = 0

    def next_word(self) -> int:
        self.counter += 1
        return mix64((self.key + _GOLDEN * self.counter) & _MASK64)


def uniform_int(q: int, rng: RandomStream) -> int:
    """One uniform draw from 0..q-1: the top (b + 16) bits of the next word,
    b the bit length of q - 1, rejected at or above the largest multiple of
    q in range.  The reference for `galois.uniform_columns`."""
    bits = max(1, (q - 1).bit_length()) + 16
    limit = (1 << bits) - (1 << bits) % q
    while True:
        cand = rng.next_word() >> (64 - bits)
        if cand < limit:
            return cand % q


def rank_gf2(rows: list[int], width: int) -> int:
    """GF(2) rank of rows packed as ints, by xor elimination."""
    rank = 0
    rows = [r for r in rows]
    for col in range(width):
        bit = 1 << col
        piv = next((i for i in range(rank, len(rows)) if rows[i] & bit), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i] & bit:
                rows[i] ^= rows[rank]
        rank += 1
    return rank


def corpus_params(n: int = 200) -> list[tuple[int, int, int, float]]:
    """Deterministic (seed, w, q, density) grid for the random-DAG corpus."""
    qs = (2, 3, 4)
    densities = (0.25, 0.4, 0.6, 0.85)
    out = []
    for i in range(n):
        w = 1 + i % 3
        q = qs[(i // 3) % 3]
        density = densities[(i // 7) % 4]
        out.append((i, w, q, density))
    return out


def corpus_network(seed: int, w: int, density: float):
    from rlncfail.netmodel import random_dag

    return random_dag(seed % 7, w, density, seed=seed)


def small_multigraph(rng) -> Network:
    """A small multigraph drawn from the `random.Random` rng: parallel
    channels, a second sink u behind t, and a node next to both s and t."""
    from rlncfail.netmodel import Channel

    k = rng.randint(1, 5)
    names = ["s"] + [f"i{a}" for a in range(1, k + 1)] + ["t", "u"]
    pairs = [(a, b) for a in range(k + 1) for b in range(a + 1, k + 3)]
    v = rng.randint(1, k)
    chosen = [(0, v), (v, k + 1)] + rng.choices(pairs, k=rng.randint(2, 11))
    nodes = {n: "internal" for n in names} | {"s": "source", "t": "sink", "u": "sink"}
    return Network(nodes, [Channel(f"e{j:02d}", names[a], names[b])
                           for j, (a, b) in enumerate(chosen)])


class NaiveField:
    """GF(p^m) from the field's reduction polynomial alone: base-p digit
    lists, schoolbook multiply and mod, inverse by search.  No tables and no
    generator, so it shares nothing with the library's log/antilog engine."""

    def __init__(self, field: FieldSpec):
        self.p, self.m, self.q = field.p, field.m, field.q
        self.poly = field.reduction_poly  # monic, low degree first; None when m = 1

    def digits(self, v: int) -> list[int]:
        v = int(v)  # a numpy scalar would wrap in the products below
        return [v // self.p**i % self.p for i in range(self.m)]

    def pack(self, digits: list[int]) -> int:
        return sum(c % self.p * self.p**i for i, c in enumerate(digits))

    def add(self, a: int, b: int) -> int:
        return self.pack([x + y for x, y in zip(self.digits(a), self.digits(b))])

    def sub(self, a: int, b: int) -> int:
        return self.pack([x - y for x, y in zip(self.digits(a), self.digits(b))])

    def mul(self, a: int, b: int) -> int:
        m = self.m
        conv = [0] * (2 * m - 1)
        for i, x in enumerate(self.digits(a)):
            for j, y in enumerate(self.digits(b)):
                conv[i + j] += x * y
        for i in range(2 * m - 2, m - 1, -1):  # cancel x^i with x^(i-m) * poly
            c = conv[i] % self.p
            for j, r in enumerate(self.poly):
                conv[i - m + j] -= c * r
        return self.pack(conv[:m])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return next(b for b in range(1, self.q) if self.mul(a, b) == 1)


def naive_rank(rows: list[list[int]], field: NaiveField) -> int:
    """Rank by fraction-free Gaussian elimination: row_i <- piv * row_i -
    f * pivot_row is invertible for any pivot != 0, so no inverse is needed."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f:
                rows[i] = [
                    field.sub(field.mul(top[col], x), field.mul(f, y))
                    for x, y in zip(rows[i], top)
                ]
        rank += 1
    return rank


def naive_failure_test(net: Network, w: int, field: FieldSpec, t: str):
    """(N, failed): failed(coeffs) propagates the kernels node by node with
    coeffs[i] at canonical slot i and reports rank(F_t) < w."""
    F = NaiveField(field)
    slots = [(s.in_id, s.out_id) for s in coefficient_slots(net, w)]
    order = net.order
    cols = sorted(c.id for c in net.in_channels(t))

    def failed(coeffs) -> bool:
        k = dict(zip(slots, coeffs))
        sources = input_channel_ids(net, net.source, w)
        kern = {d: [int(i == j) for j in range(w)] for i, d in enumerate(sources)}
        for node in order:
            ins = input_channel_ids(net, node, w)
            for c in net.out_channels(node):
                vec = [0] * w
                for d in ins:
                    vec = [F.add(v, F.mul(k[(d, c.id)], x)) for v, x in zip(vec, kern[d])]
                kern[c.id] = vec
        return naive_rank([[kern[c][i] for c in cols] for i in range(w)], F) < w

    return len(slots), failed


def naive_mc_failures(net: Network, w: int, field: FieldSpec, t: str, trials: int, seed: int) -> int:
    """Monte Carlo failure count, one trial at a time: trial i draws its
    coefficients from RandomStream(seed, stream=i) in slot order."""
    n, failed = naive_failure_test(net, w, field, t)
    fails = 0
    for i in range(trials):
        rng = RandomStream(seed, stream=i)
        fails += failed([uniform_int(field.q, rng) for _ in range(n)])
    return fails


def naive_enumerated_failures(net: Network, w: int, field: FieldSpec, t: str) -> int:
    """Failing assignments among all q^N, by itertools.product."""
    n, failed = naive_failure_test(net, w, field, t)
    return sum(failed(combo) for combo in product(range(field.q), repeat=n))


def _batch_rank(mats: np.ndarray, field: FieldSpec) -> np.ndarray:
    """Ranks of a (w, c, B) batch of matrices, by the library's `_eliminate`."""
    return _eliminate(mats.astype(np.uint16), field)[1]


def enumerated_failures(net: Network, w: int, field: FieldSpec, t: str) -> int:
    """Failing assignments among all q^N, by the library's engine
    (`_kernels` on the integer view, every channel passed as live, then
    `_eliminate`'s ranks) run over a mixed-radix counter of the canonical slot
    order in blocks of 2^16 assignments, one per column."""
    n, q = coefficient_count(net, w), field.q
    total = q**n
    if total > 1 << 62:
        raise ValueError(f"q^N = {total} overflows the int64 assignment index")
    places = [q ** (n - 1 - j) for j in range(n)]
    sink_cols = list(net.ins[net.index[t]])
    failures = 0
    for start in range(0, total, 1 << 16):
        idx = np.arange(start, min(start + (1 << 16), total), dtype=np.int64)
        coeffs = np.stack([idx // place % q for place in places]).astype(np.uint16)
        kern = _kernels(net, w, field, coeffs, list(range(len(net.channels))))
        failures += int((_batch_rank(kern[:, sink_cols], field) < w).sum())
    return failures


def full_draw_failures(net: Network, w: int, field: FieldSpec, t: str, trials: int, seed: int) -> int:
    """Monte Carlo failure count with every slot drawn, unit by unit of
    `_UNIT_TRIALS` trials: the first N words of each trial's stream, and per
    node the (in-kernel, out-channel, B) block cut from them before the
    out-channels that cannot reach t are dropped.  The reference for
    `estimate_failure`, which draws only the live slots, at every q."""
    ti = net.index[t]
    reach = net.reaching(ti)
    col = {j: c for c, j in enumerate(j for j, h in enumerate(net.head) if reach[h])}
    src, failures = net.index[net.source], 0
    for start in range(0, trials, _UNIT_TRIALS):
        rows = np.arange(start, min(start + _UNIT_TRIALS, trials))
        coeffs = uniform_columns(field.q, seed, rows, coefficient_count(net, w))
        kern = np.zeros((w, len(col), coeffs.shape[1]), dtype=coeffs.dtype)
        n = 0
        for i, (a, outs) in enumerate(zip(_fan_in(net, w), net.outs)):
            block = coeffs[n : n + a * len(outs)].reshape(a, len(outs), coeffs.shape[1])
            n += a * len(outs)
            keep = [b for b, j in enumerate(outs) if j in col]
            if keep and a:
                block = block[:, keep]
                out = block if i == src else _matmul(kern[:, [col[j] for j in net.ins[i]]], block, field)
                kern[:, [col[outs[b]] for b in keep]] = out
        full = _full_rank(kern[:, [col[j] for j in net.ins[ti]]], field)
        if field.q == 2:
            full = np.unpackbits(full, count=len(rows))
        failures += len(rows) - int(np.count_nonzero(full))
    return failures
