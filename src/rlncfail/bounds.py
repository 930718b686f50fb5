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

The field order q enters only through phi and the lower bound's power of q.
So `full_report` analyses the paths once, with no field: its `BoundReport`
holds the counts above, and `BoundReport.bounds(q)` evaluates the five
formulas over GF(q) from them.

Every value is a `fractions.Fraction`, so tightness statements (bound equals
exact probability) are genuine equalities, not float coincidences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .flowpaths import cut_out_profile, disjoint_paths, min_cut, min_internal_paths
from .netmodel import Network


def phi(q: int, n: int) -> Fraction:
    """prod_{i=1..n} (1 - q^-i) = prod_{i=1..n} (q^i - 1) / q^(n(n+1)/2);
    phi(q, 0) = 1."""
    if q < 2:
        raise ValueError(f"field order must be >= 2, got {q}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return Fraction(math.prod(q**i - 1 for i in range(1, n + 1)), q ** (n * (n + 1) // 2))


@dataclass(frozen=True)
class BoundReport:
    """What the bounds need of one (network, sink, rate) choice, for every
    field.

    r is the internal-node count of the deterministic path set used for the
    cut profile; r_min is the minimum over all path sets (exact only when
    r_min_exact).  Over every field the bounds satisfy
    lower <= thm1 <= thm2 <= thm3 and, when r_min is exact, cor1 <= thm2.
    """

    w: int
    c_t: int
    r: int
    r_min: int
    r_min_exact: bool
    j_count: int
    cut_out_sizes: tuple[int, ...]

    @property
    def delta_t(self) -> int:
        return self.c_t - self.w

    @property
    def rt_mode(self) -> str:
        """The R_t flag every report prints: `exact` when the search proved
        r_min, else `heuristic`."""
        return "exact" if self.r_min_exact else "heuristic"

    def bounds(self, q: int) -> dict[str, Fraction]:
        """The five bounds over GF(q), in report order: lower, thm1, thm2,
        cor1, thm3."""
        staged = phi(q, self.w)  # the staged bounds' per-stage factor
        values = {
            "lower": Fraction(1, q ** (self.delta_t + 1)),
            "thm1": 1 - math.prod(phi(q, self.w - out) for out in self.cut_out_sizes),
            "thm2": 1 - staged ** (self.r + 1),
            "cor1": 1 - staged ** (self.r_min + 1),
            "thm3": 1 - staged ** (self.j_count + 1),
        }
        lower, thm1, thm2, _, thm3 = values.values()
        if not lower <= thm1 <= thm2 <= thm3:
            raise RuntimeError(
                f"bound ordering violated: lower {lower}, thm1 {thm1}, thm2 {thm2}, thm3 {thm3}"
            )
        return values

    def as_dict(self, values: dict[str, Fraction]) -> dict:
        """The JSON body below the {sink, q, w} header, given `values =
        bounds(q)`."""
        return {
            "C_t": self.c_t,
            "r": self.r,
            "R_t": {"value": self.r_min, "mode": self.rt_mode},
            "J": self.j_count,
            "bounds": {k: {"num": str(values[k].numerator), "den": str(values[k].denominator)}
                       for k in ("thm1", "thm2", "cor1", "thm3", "lower")},
        }


def full_report(net: Network, t: str, w: int) -> BoundReport:
    """The path analysis for sink t at rate w, which every field shares.

    The cut profile comes from the deterministic disjoint path set, listed
    in its canonical (topological) node order.  Raises InfeasibleRateError
    via the path search when w exceeds C_t.
    """
    c_t = min_cut(net, t)
    ps = disjoint_paths(net, t, w)  # raises when w > C_t
    profile = cut_out_profile(net, ps)
    rt = min_internal_paths(net, t, w)
    return BoundReport(
        w=w,
        c_t=c_t,
        r=ps.r,
        r_min=rt.paths.r,
        r_min_exact=rt.exact,
        j_count=len(net.internal_nodes),
        cut_out_sizes=profile,
    )
