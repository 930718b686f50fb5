"""Finite field arithmetic for network coding coefficients.

A field of order q = p^m is built once (`make_field`) and then shared; it is
immutable after construction and safe to use from any number of workers.
Elements are canonical integers in 0..q-1; for extension fields (m > 1) the
integer packs the residue polynomial's coefficients in base p, i.e.
value = sum(c_i * p**i) for the residue c_0 + c_1 x + ... + c_{m-1} x^{m-1}.

GF(2) multiplies by AND and adds by XOR.  Every other field multiplies and
inverts through log/antilog tables of length O(q), built on first use by
doubling maps of multiplication on the q values (see `FieldSpec`), and adds
digit-wise (XOR in characteristic 2).
The array methods serve the bulk simulation and the exact evaluator.

Sampling is deterministic: `uniform_columns` draws uniform elements from
counter-based streams keyed by (seed, stream), rejecting from a power-of-two
range so that every value has probability exactly 1/q regardless of q.  It is
the package's only random draw, counter-major: column i of its result (bit i
at q = 2) is stream i, so Monte Carlo trial i is column i of the coefficient
block the engine propagates, and `netmodel.random_dag` reads stream 0.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache

import numpy as np

MAX_ORDER = 1 << 16

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_STREAM_SALT = 0xD2B74407B1CE6E93
_CHUNK_WORDS = 1 << 15  # words hashed per numpy pass of `uniform_columns`

_GOLDEN_U64 = np.uint64(_GOLDEN)


def _mix64(x: np.ndarray, tmp: np.ndarray | None = None, top: int = 64) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array, in place: bijective, full
    avalanche.  tmp, if given, is scratch of x's shape.  The last step changes
    only bits 0-32, so it is skipped when only the top `top` <= 31 bits count."""
    tmp = np.empty_like(x) if tmp is None else tmp
    for s, c in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        x ^= np.right_shift(x, np.uint64(s), out=tmp)
        x *= np.uint64(c)
    if top > 31:
        x ^= np.right_shift(x, np.uint64(31), out=tmp)
    return x


def uniform_columns(q: int, seed: int, streams, n) -> np.ndarray:
    """(n, len(streams)) array, uint16 for q <= MAX_ORDER and uint64 above:
    column i holds the first n uniform draws from 0..q-1 of the counter
    stream (seed, streams[i]).  Above MAX_ORDER q must be a power of two.
    At q = 2 it is packed eight streams a byte, `np.packbits(draws, axis=1)`.

    Word c = 1, 2, ... of a stream with key k is mix64(k + GOLDEN * c), so a
    stream is a pure function of (seed, stream).  A draw takes the top
    b + 16 bits of the stream's next word, b the bit length of q - 1, and
    rejects candidates at or above the largest multiple of q in that range
    (none when q is a power of two), so each value has probability exactly 1/q.
    n may instead be the sorted positions c of the draws to return: at a
    power of two, draw c is word c + 1 and only those words are hashed; where
    q rejects words, each stream is hashed through the last position (a
    rejection shifts every later draw) and only those rows are returned.
    """
    if q > MAX_ORDER and q & (q - 1):
        raise ValueError(f"draws modulo {q} need q <= {MAX_ORDER} or a power of two")
    keep = slice(None)  # the rows returned of the words hashed
    if q & (q - 1) and np.ndim(n):
        keep, n = np.asarray(n, np.intp), int(n[-1]) + 1 if len(n) else 0
    bits = max(1, (q - 1).bit_length()) + 16
    shift, limit = np.uint64(64 - bits), np.uint64((1 << bits) - (1 << bits) % q)
    # one-element arrays throughout: numpy warns on uint64 scalar overflow
    seed_key = _mix64(np.array([(seed + _GOLDEN) & _MASK64], dtype=np.uint64))
    steps = np.asarray(np.arange(n) if np.ndim(n) == 0 else n, np.uint64) * _GOLDEN_U64 + _GOLDEN_U64
    n, pack = len(steps), 8 if q == 2 else 1
    # each group of streams is keyed once, into a spare row of buf, and hashed in bands of
    # rows: at a power of two up to _CHUNK_WORDS // 8 streams, a multiple of 8, a few rows a
    # band; where q rejects words, all n rows in one band (a rejection shifts later draws).
    # buf and tmp, reused by every band, are the only chunk-sized arrays; tmp is scratch
    group = max(1, _CHUNK_WORDS // max(2, n + 1)) if q & (q - 1) else max(8, min(_CHUNK_WORDS // 8, len(streams) + 7) // 8 * 8)
    band = max(1, n if q & (q - 1) else _CHUNK_WORDS // group - 1)
    out = np.empty((len(steps[keep]), -(-len(streams) // pack)), dtype=np.uint8 if q == 2 else np.uint16 if q <= MAX_ORDER else np.uint64)
    buf, tmp = (np.empty((min(n, band) + 1) * min(group, len(streams)), dtype=np.uint64) for _ in range(2))
    short = np.getbufsize() // 3  # numpy buffers a broadcast over 3 or more rows this short
    for c0, r0 in itertools.product(range(0, len(streams), group), range(0, n, band)):
        if r0 == 0:  # a range's slice goes through arange: asarray would build a list
            s = streams[c0 : c0 + group]
            keys = buf[len(buf) - len(s) :]
            np.copyto(keys, np.arange(s.start, s.stop, s.step) if isinstance(s, range) else s, casting="unsafe")
            keys += np.uint64(1)
            _mix64(np.bitwise_xor(np.multiply(keys, np.uint64(_STREAM_SALT), out=keys), seed_key, out=keys), tmp[: len(s)])
        shape = (len(steps[r0 : r0 + band]), len(keys))
        cand, scratch = buf[: shape[0] * shape[1]].reshape(shape), tmp[: shape[0] * shape[1]].reshape(shape)
        if len(keys) > short:  # one broadcast pass
            np.add(steps[r0 : r0 + band, None], keys, out=cand)
        else:  # two copies, which numpy never buffers, and an add without broadcasting
            np.copyto(cand, keys)
            np.copyto(scratch, steps[r0 : r0 + band, None])
            np.add(cand, scratch, out=cand)
        _mix64(cand, scratch, bits)
        if q == 2:  # bit 47 set or not, eight streams a byte, through a bool mask in the free scratch
            mask = tmp.view(np.bool_)[: cand.size].reshape(shape)
            np.not_equal(np.bitwise_and(cand, np.uint64(1) << shift, out=cand), 0, out=mask)
            cand = np.packbits(mask, axis=1)
        elif q & (q - 1):
            cand >>= shift
            # rejections are rare (< 2^-16 per word): in place, with the mask in
            # free scratch, slide accepted runs left (1-D, bufferless), then refill
            for i in np.flatnonzero(cand.max(axis=0, initial=0) >= limit):
                bad = np.flatnonzero(np.greater_equal(cand[:, i], limit, out=tmp.view(np.bool_)[:n]))
                col, c, kept = cand[:, i], np.array([n], dtype=np.uint64), n - len(bad)
                for k, (a, b) in enumerate(zip(bad + 1, [*bad[1:], n])):
                    col[a - k - 1 : b - k - 1] = col[a:b]
                while kept < n:
                    c += 1
                    col[kept] = (_mix64(keys[i : i + 1] + _GOLDEN_U64 * c) >> shift)[0]
                    kept += int(col[kept] < limit)
            # every candidate has at most 32 bits here; numpy divides uint32
            # by a scalar with a multiply, but its % divides in hardware
            low, quo = tmp.view(np.uint32)[: 2 * cand.size].reshape((2,) + shape)
            np.copyto(low, cand, casting="unsafe")
            np.floor_divide(low, np.uint32(q), out=quo)
            cand = np.subtract(low, np.multiply(quo, np.uint32(q), out=quo), out=low)
        else:
            cand >>= shift
            cand &= np.uint64(q - 1)
        out[r0 : r0 + band, c0 // pack : c0 // pack + cand.shape[1]] = cand[keep]
    return out


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending; [] for n < 2."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# --- polynomial helpers over F_p; coefficient tuples are low degree first ---

def _poly_mod(num: list[int], den: tuple[int, ...], p: int) -> list[int]:
    """Remainder of num / den over F_p.  den must be monic."""
    num = list(num)
    dd = len(den) - 1
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] % p
        if c:
            for j in range(dd + 1):
                num[i - dd + j] = (num[i - dd + j] - c * den[j]) % p
    del num[dd:]
    return num


def _poly_is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    m = len(poly) - 1
    if poly[0] == 0:  # divisible by x
        return False
    for d in range(1, m // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            den = tuple(low) + (1,)
            if not any(_poly_mod(list(poly), den, p)):
                return False
    return True


def _smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree m over F_p.

    Coefficients are compared from the constant term upward, so candidates
    are enumerated in (c_0, c_1, ..., c_{m-1}) tuple order.
    """
    for low in itertools.product(range(p), repeat=m):
        poly = tuple(low) + (1,)
        if _poly_is_irreducible(poly, p):
            return poly
    raise RuntimeError(f"no irreducible of degree {m} over F_{p}")  # unreachable


class FieldSpec:
    """Finite field of order q = p^m with a canonical reduction polynomial.

    Use `make_field` rather than constructing directly: it caches one field
    per (p, m), so equal orders share one set of tables.

    For q > 2, products and inverses run through log/antilog tables over the
    smallest generator g of the multiplicative group, built on first use:
    `exp[i] = g^i` (uint16) and `log[exp[i]] = i`
    (intp, so sums of logs index `exp` without a cast).  g is found by
    powers of its (m, m) matrix on digit rows (by `pow` at m = 1), from x,
    the value p, above m = 1, where no constant generates the group.
    Multiplication by g is then a map on the q values, built by linearity
    over the digits; the maps of g, g^2, g^4, ..., each the last composed
    with itself, give the powers of g in blocks of doubling length.
    `log[0]` is a sentinel that lands every product or quotient involving 0
    in a zero tail of `exp`, so `vadd`/`vneg`/`vmul`/`vinv` need no masks.
    GF(2) needs no tables: a product is AND and 1 is its own inverse.  The
    methods take ints or integer arrays of canonical values and broadcast
    like numpy; `vmul`, `vinv` and a prime field's `vadd` keep uint16 arrays uint16.
    """

    def __init__(self, p: int, m: int):
        # sizes first, so that no input factors a huge p or computes a huge p**m
        if m < 1:
            raise ValueError(f"extension degree must be >= 1, got {m}")
        if p < 2:
            raise ValueError(f"characteristic must be prime, got {p}")
        if p > MAX_ORDER or m >= MAX_ORDER.bit_length() or p**m > MAX_ORDER:  # p^m >= 2^m
            raise ValueError(f"field order {p}^{m} exceeds the supported maximum {MAX_ORDER}")
        if _prime_factors(p) != [p]:
            raise ValueError(f"characteristic must be prime, got {p}")
        self.p = p
        self.m = m
        self.q = p**m
        self.reduction_poly: tuple[int, ...] | None = (
            _smallest_irreducible(p, m) if m > 1 else None
        )

    def __repr__(self) -> str:
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"

    # -- log/antilog tables ------------------------------------------------

    @cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        p, m, q, n = self.p, self.m, self.q, self.q - 1
        places = p ** np.arange(m)  # the value of 1 in each base-p digit
        poly = np.array(self.reduction_poly or (), dtype=np.int64)  # unused when m = 1

        def rows(c: int) -> np.ndarray:
            # multiplication by c as an (m, m) matrix on digit rows: row j holds the digits
            # of c x^j, and row j + 1 is row j shifted up one digit with x^m reduced by poly
            out = [c // places % p]
            for _ in range(m - 1):
                out.append((np.concatenate(([0], out[-1])) - out[-1][-1] * poly)[:m] % p)
            return np.array(out)

        def power(a: np.ndarray, e: int) -> np.ndarray:  # a^e, by square-and-multiply
            out = np.eye(m, dtype=np.int64)
            while e:
                if e & 1:
                    out = out @ a % p
                a, e = a @ a % p, e >> 1
            return out

        # the smallest generator g, as the rows of its matrix: c generates the group iff
        # c^(n/r) != 1 for every prime r | n, tested by pow at m = 1; above it no constant
        # does, so the search starts at x, the value p
        factors = _prime_factors(n)
        g = (rows(next(c for c in range(1, q) if all(pow(c, n // r, p) != 1 for r in factors))) if m == 1 else
             next(a for a in map(rows, range(p, q)) if all(power(a, n // r)[0] @ places != 1 for r in factors)))
        # multiplication by g as a map on the q values, by linearity over the digits:
        # t[c p^j + v] = t[v] + c g x^j for v < p^j, in blocks of doubling c
        t = np.zeros(q, dtype=np.intp)
        for j, row in enumerate(g):  # row: the digits of g x^j
            k, top = p**j, p ** (j + 1)
            while k < top:
                t[k : min(2 * k, top)] = self.vadd(t[: min(k, top - k)], k // p**j * row % p @ places)
                k *= 2
        # powers of g twice over (log a + log b < 2n), exp[k:2k] = g^k * exp[:k] with t
        # the map of g^k, squared by composition; then the zero tail that log[0] = 2n
        # reaches from any offset <= 2n
        exp = np.zeros(4 * n + 1, dtype=np.uint16)
        exp[0], k = 1, 1
        while k < n:
            exp[k : 2 * k] = t[exp[:k]]
            k *= 2
            t = t[t] if k < n else t
        exp[n : 2 * n] = exp[:n]
        log = np.full(q, 2 * n, dtype=np.intp)
        log[exp[:n]] = np.arange(n)
        return exp, log

    # -- array arithmetic on canonical integers ------------------------------

    def vadd(self, a, b):
        """a + b: digit-wise in base p (XOR for p = 2)."""
        p = self.p
        if p == 2:
            return a ^ b
        if self.m == 1:  # a + b = a - d, plus p where a < d, in the inputs' dtype
            d = p - b
            s = np.subtract(a, d)  # a ufunc call wraps silently, on numpy scalars too
            return np.add(s, (a < d) * s.dtype.type(p))
        out = np.add(a, b, dtype=np.int32)
        for j in range(1, self.m + 1):  # drop each digit's carry; digit a - a // p * p: % is slow
            a_hi, b_hi = a // p, b // p
            out -= (a - a_hi * p + b - b_hi * p >= p) * p**j
            a, b = a_hi, b_hi
        return out

    def vneg(self, a):
        """-a = a * g^(n/2) for odd q; every element is its own negative for p = 2."""
        if self.p == 2:
            return a
        exp, log = self._tables
        return exp[log[a] + (self.q - 1) // 2]

    def vmul(self, a, b):
        """a * b: AND for q = 2."""
        if self.q == 2:
            return a & b
        exp, log = self._tables
        return exp[log[a] + log[b]]

    def vinv(self, a):
        """Inverse of nonzero values (0 maps to 0); 1 is the only unit for q = 2."""
        if self.q == 2:
            return a
        exp, log = self._tables
        return exp[(self.q - 1) - log[a]]


@lru_cache(maxsize=None)
def make_field(p: int, m: int = 1) -> FieldSpec:
    """Field of order p^m with the canonical reduction polynomial (cached)."""
    return FieldSpec(p, m)


def parse_prime_power(q: int) -> tuple[int, int]:
    """Factor q as p^m; raises ValueError when q is not a prime power."""
    if q < 2:
        raise ValueError(f"field order must be >= 2, got {q}")
    if q > MAX_ORDER:
        raise ValueError(f"field order {q} exceeds the supported maximum {MAX_ORDER}")
    factors = _prime_factors(q)
    if len(factors) != 1:
        raise ValueError(f"{q} is not a prime power")
    p, m = factors[0], 1
    while p**m < q:
        m += 1
    return p, m


def make_field_of_order(q: int) -> FieldSpec:
    """Field of order q (must be a prime power)."""
    return make_field(*parse_prime_power(q))
