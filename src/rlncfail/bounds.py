"""Closed-form failure probability bounds, evaluated in exact rationals.

The central quantity is phi(q, n) = prod_{i=1..n} (1 - q^-i): the probability
that n fresh uniform vectors complete a fixed complementary subspace to full
dimension.  From it:

* cut-profile upper bound   1 - prod_k phi(q, w - out_k)   over the cut steps
  of a chosen path set ("thm1" in reports); w - out_k is the number of paths
  through the k-th node, so this is 1 - phi(q, w) prod_v phi(q, m_v) over the
  path set's internal nodes v, whatever order they are advanced in;
* staged upper bound        1 - phi(q, w)^(n+1)            with n = r, the
  internal nodes on the chosen path set ("thm2"), n = R_t, the minimum over
  all path sets ("cor1"), or n = |J|, all internal nodes ("thm3");
* lower bound               q^-(C_t - w + 1)               ("lower").

Every value is a `fractions.Fraction`, so tightness statements (bound equals
exact probability) are genuine equalities, not float coincidences.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .flowpaths import cut_out_profile, disjoint_paths, min_cut, min_internal_paths
from .galois import FieldSpec
from .netmodel import Network


def phi(q: int, n: int) -> Fraction:
    """prod_{i=1..n} (1 - q^-i); phi(q, 0) = 1."""
    if q < 2:
        raise ValueError(f"field order must be >= 2, got {q}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    out = Fraction(1)
    for i in range(1, n + 1):
        out *= 1 - Fraction(1, q**i)
    return out


def cut_profile_bound(out_sizes, q: int, w: int) -> Fraction:
    """Upper bound from a cut sequence's out-part sizes |CUT^out_k|, k=0..r:
    1 - prod_k phi(q, w - out_k)."""
    keep = Fraction(1)
    for k, size in enumerate(out_sizes):
        if not 0 <= size <= w:
            raise ValueError(f"out-part size {size} at step {k} outside 0..{w}")
        keep *= phi(q, w - size)
    return 1 - keep


def internal_node_bound(count: int, q: int, w: int) -> Fraction:
    """Staged upper bound 1 - phi(q, w)^(count+1); count is the number of
    internal coding stages (r, R_t, or |J| depending on what is known)."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    return 1 - phi(q, w) ** (count + 1)


def rate_margin_lower_bound(q: int, c_t: int, w: int) -> Fraction:
    """Lower bound 1 / q^(delta + 1) with delta = C_t - w >= 0."""
    if w > c_t:
        raise ValueError(f"rate {w} exceeds min-cut {c_t}")
    return Fraction(1, q ** (c_t - w + 1))


@dataclass(frozen=True)
class BoundReport:
    """Every bound for one (network, sink, rate, field) choice.

    r is the internal-node count of the deterministic path set used for the
    cut profile; r_min is the minimum over all path sets (exact only when
    r_min_exact).  The upper bounds satisfy lower <= thm1 <= thm2 <= thm3
    and, when r_min is exact, cor1 <= thm2.
    """

    sink: str
    q: int
    w: int
    c_t: int
    delta_t: int
    r: int
    r_min: int
    r_min_exact: bool
    j_count: int
    cut_out_sizes: tuple[int, ...]
    thm1: Fraction
    thm2: Fraction
    cor1: Fraction
    thm3: Fraction
    lower: Fraction

    def as_dict(self) -> dict:
        return {
            "sink": self.sink,
            "q": self.q,
            "w": self.w,
            "C_t": self.c_t,
            "r": self.r,
            "R_t": {"value": self.r_min, "mode": "exact" if self.r_min_exact else "heuristic"},
            "J": self.j_count,
            "bounds": {k: _frac_obj(getattr(self, k))
                       for k in ("thm1", "thm2", "cor1", "thm3", "lower")},
        }


def _frac_obj(x: Fraction) -> dict:
    return {"num": str(x.numerator), "den": str(x.denominator)}


def full_report(
    net: Network,
    t: str,
    w: int,
    field: FieldSpec,
    rt_mode: str = "exact",
) -> BoundReport:
    """All bounds for sink t at rate w over the given field.

    The cut profile comes from the deterministic disjoint path set, listed
    in its canonical (topological) node order.  Raises InfeasibleRateError
    via the path search when w exceeds C_t.
    """
    c_t = min_cut(net, t)
    ps = disjoint_paths(net, t, w)  # raises when w > C_t
    profile = cut_out_profile(net, ps)
    q = field.q
    thm1 = cut_profile_bound(profile, q, w)
    rt = min_internal_paths(net, t, w, mode=rt_mode)
    thm2 = internal_node_bound(ps.r, q, w)
    cor1 = internal_node_bound(rt.paths.r, q, w)
    thm3 = internal_node_bound(len(net.internal_nodes), q, w)
    lower = rate_margin_lower_bound(q, c_t, w)
    if not lower <= thm1 <= thm2 <= thm3:
        raise RuntimeError(
            f"bound ordering violated: lower {lower}, thm1 {thm1}, thm2 {thm2}, thm3 {thm3}"
        )
    return BoundReport(
        sink=t,
        q=q,
        w=w,
        c_t=c_t,
        delta_t=c_t - w,
        r=ps.r,
        r_min=rt.paths.r,
        r_min_exact=rt.exact,
        j_count=len(net.internal_nodes),
        cut_out_sizes=profile,
        thm1=thm1,
        thm2=thm2,
        cor1=cor1,
        thm3=thm3,
        lower=lower,
    )
