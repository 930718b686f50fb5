"""Finite field arithmetic for network coding coefficients.

A field of order q = p^m is built once (`make_field`) and then shared; it is
immutable after construction and safe to use from any number of workers.
Elements are canonical integers in 0..q-1; for extension fields (m > 1) the
integer packs the residue polynomial's coefficients in base p, i.e.
value = sum(c_i * p**i) for the residue c_0 + c_1 x + ... + c_{m-1} x^{m-1}.

Every field multiplies and inverts through log/antilog tables of length
O(q), built on first use, and adds digit-wise in base p; the same array
methods serve scalar arithmetic and the bulk simulation and enumeration
engines.

Sampling is deterministic: `RandomStream` is a counter-based word stream, and
`uniform_int` rejects from a power-of-two range so that every field element
has probability exactly 1/q regardless of q.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache

import numpy as np

MAX_ORDER = 1 << 16

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_STREAM_SALT = 0xD2B74407B1CE6E93

_GOLDEN_U64 = np.uint64(_GOLDEN)


def mix64(x: int) -> int:
    """SplitMix64 finalizer: a bijective 64-bit mixer with full avalanche."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def mix64_array(x: np.ndarray) -> np.ndarray:
    """Vectorized `mix64` over a uint64 array."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def stream_key(seed: int, stream: int = 0) -> int:
    """64-bit key for the (seed, stream) pair; equal pairs give equal keys."""
    k = mix64((seed + _GOLDEN) & _MASK64)
    return mix64(k ^ (((stream + 1) * _STREAM_SALT) & _MASK64))


def stream_keys_array(seed: int, streams: np.ndarray) -> np.ndarray:
    """Vectorized `stream_key` for an int64/uint64 array of stream ids."""
    k = np.uint64(mix64((seed + _GOLDEN) & _MASK64))
    salted = (streams.astype(np.uint64) + np.uint64(1)) * np.uint64(_STREAM_SALT)
    return mix64_array(k ^ salted)


def words_at(keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Vectorized `RandomStream.next_word`: word <counter> of each stream key."""
    return mix64_array(keys + _GOLDEN_U64 * counters)


def rejection_params(q: int) -> tuple[int, int]:
    """(shift, limit) for the power-of-two rejection sampler shared by the
    scalar and vectorized uniform draws: candidates are word >> shift,
    accepted when below limit (the largest multiple of q in range)."""
    bits = max(1, (q - 1).bit_length()) + 16
    span = 1 << bits
    return 64 - bits, span - span % q


class RandomStream:
    """Deterministic counter-based stream of 64-bit words.

    word(i) = mix64(key + GOLDEN * i), so sequential use and random access
    agree; any consumer can replay a stream exactly from (seed, stream).
    Instances are single-owner: never share one between concurrent workers,
    derive one stream per worker instead.
    """

    __slots__ = ("key", "counter")

    def __init__(self, seed: int, stream: int = 0):
        self.key = stream_key(seed, stream)
        self.counter = 0

    def next_word(self) -> int:
        self.counter += 1
        return mix64((self.key + _GOLDEN * self.counter) & _MASK64)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _prime_factors(n: int) -> list[int]:
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

    Use `make_field` rather than constructing directly; equal (p, m) always
    yields the identical field (same reduction polynomial, same tables).

    Arithmetic runs through log/antilog tables over a generator g of the
    multiplicative group, built on first use: `exp[i] = g^i` (uint16) and
    `log[exp[i]] = i` (int32).  `log[0]` is a sentinel that lands every
    product or quotient involving 0 in a zero tail of `exp`, so the array
    methods `vadd`/`vsub`/`vneg`/`vmul`/`vinv` need no masks; they take ints
    or integer arrays of canonical values and broadcast like numpy.
    """

    def __init__(self, p: int, m: int):
        if not _is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p}")
        if m < 1:
            raise ValueError(f"extension degree must be >= 1, got {m}")
        q = p**m
        if q > MAX_ORDER:
            raise ValueError(f"field order {q} exceeds the supported maximum {MAX_ORDER}")
        self.p = p
        self.m = m
        self.q = q
        self.reduction_poly: tuple[int, ...] | None = (
            _smallest_irreducible(p, m) if m > 1 else None
        )

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldSpec)
            and (self.p, self.m, self.reduction_poly)
            == (other.p, other.m, other.reduction_poly)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.reduction_poly))

    def __reduce__(self):
        # unpickle as the receiving process's cached field, so each worker
        # builds the tables once rather than once per work block
        return make_field, (self.p, self.m)

    def __repr__(self) -> str:
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"

    # -- digit packing -----------------------------------------------------

    def _digits(self, value: int) -> list[int]:
        out = []
        for _ in range(self.m):
            value, r = divmod(value, self.p)
            out.append(r)
        return out

    def _pack(self, digits: list[int]) -> int:
        v = 0
        for c in reversed(digits):
            v = v * self.p + c
        return v

    # -- log/antilog tables ------------------------------------------------

    def _poly_mul(self, a: int, b: int) -> int:
        """Schoolbook product; only used while building the tables."""
        conv = [0] * (2 * self.m - 1)
        for i, x in enumerate(self._digits(a)):
            for j, y in enumerate(self._digits(b)):
                conv[i + j] += x * y
        conv = [c % self.p for c in conv]
        if self.m == 1:
            return conv[0]
        rem = _poly_mod(conv, self.reduction_poly, self.p)
        return self._pack(rem + [0] * (self.m - len(rem)))

    def _poly_pow(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._poly_mul(r, a)
            a = self._poly_mul(a, a)
            e >>= 1
        return r

    @cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        p, m, n = self.p, self.m, self.q - 1
        # g generates the multiplicative group iff g^(n/r) != 1 for every prime r | n
        factors = _prime_factors(n)
        g = next(
            g for g in range(1, self.q)
            if all(self._poly_pow(g, n // r) != 1 for r in factors)
        )
        # value -> value * g for every value at once: g * x^j, row j, is
        # the image of the j-th digit's unit
        powers = p ** np.arange(m, dtype=np.int64)
        digits = np.arange(self.q, dtype=np.int64)[:, None] // powers % p
        g_rows = np.array([self._digits(self._poly_mul(g, p**j)) for j in range(m)])
        times_g = ((digits @ g_rows) % p @ powers).tolist()
        cycle = [1]
        for _ in range(n - 1):
            cycle.append(times_g[cycle[-1]])
        # powers of g twice over (log a + log b < 2n), then the zero tail
        # that log[0] = 2n reaches from any offset up to 2n
        exp = np.zeros(4 * n + 1, dtype=np.uint16)
        exp[:n] = exp[n : 2 * n] = cycle
        log = np.empty(self.q, dtype=np.int32)
        log[exp[:n]] = np.arange(n)
        log[0] = 2 * n
        return exp, log

    # -- array arithmetic on canonical integers ------------------------------

    def vadd(self, a, b):
        """a + b: digit-wise in base p (XOR for p = 2)."""
        p = self.p
        if p == 2:
            return a ^ b
        out = np.add(a, b, dtype=np.int32)
        if self.m == 1:
            return out % p
        for j in range(self.m):  # drop the carry out of each digit
            pw = p**j
            out -= (a // pw % p + b // pw % p >= p) * (pw * p)
        return out

    def vneg(self, a):
        """-a = a * g^(n/2) for odd q; every element is its own negative for p = 2."""
        if self.p == 2:
            return a
        exp, log = self._tables
        return exp[log[a] + (self.q - 1) // 2]

    def vsub(self, a, b):
        return self.vadd(a, self.vneg(b))

    def vmul(self, a, b):
        exp, log = self._tables
        return exp[log[a] + log[b]]

    def vinv(self, a):
        """Inverse of nonzero values (0 maps to 0)."""
        exp, log = self._tables
        return exp[(self.q - 1) - log[a]]

    # -- scalar arithmetic on canonical integers ----------------------------

    def add(self, a: int, b: int) -> int:
        return int(self.vadd(a, b))

    def sub(self, a: int, b: int) -> int:
        return int(self.vsub(a, b))

    def neg(self, a: int) -> int:
        return int(self.vneg(a))

    def mul(self, a: int, b: int) -> int:
        return int(self.vmul(a, b))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"0 has no multiplicative inverse in {self!r}")
        return int(self.vinv(a))

    def pow(self, a: int, e: int) -> int:
        exp, log = self._tables
        return int(exp[int(log[a]) * e % (self.q - 1)]) if a else int(e == 0)


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
    p = 2
    while p * p <= q:
        if q % p == 0:
            m = 0
            rest = q
            while rest % p == 0:
                rest //= p
                m += 1
            if rest != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, m
        p += 1
    return q, 1  # q itself is prime


def make_field_of_order(q: int) -> FieldSpec:
    """Field of order q (must be a prime power)."""
    p, m = parse_prime_power(q)
    return make_field(p, m)


def uniform_int(q: int, rng: RandomStream) -> int:
    """Uniform draw from 0..q-1 by rejection from a power-of-two range.

    Each candidate takes the top (b + 16) bits of a fresh 64-bit word, where
    b is the bit length of q - 1; candidates at or above the largest multiple
    of q are rejected, so accepted values are exactly uniform.
    """
    shift, limit = rejection_params(q)
    while True:
        cand = rng.next_word() >> shift
        if cand < limit:
            return cand % q

