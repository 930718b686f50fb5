#!/usr/bin/env python3
"""How fast do the upper bounds close on the exact failure probability as the
field grows?

Sweeps the canonical networks over a list of field orders and prints one CSV
row per (network, q) with the exact probability (blank when the exact
evaluator would exceed its branch budget), the cut-profile bound, and the
staged bounds.  The butterfly rows show the
cut-profile bound matching the exact value at every q; the plait rows show
every upper bound collapsing onto the exact value.
"""

import argparse
import csv
import sys

from rlncfail.bounds import full_report
from rlncfail.cli import decimal_str, frac_str
from rlncfail.galois import make_field_of_order
from rlncfail.netmodel import butterfly, plait, random_dag
from rlncfail.rlncsim import EnumerationBudgetError, exact_failure

NETWORKS = {
    "butterfly": (butterfly(), "t1", 2),
    "plait(2,1)": (plait(2, 1), "t", 2),
    "plait(3,2)": (plait(3, 2), "t", 3),
    "random(5,2,0.5,#3)": (random_dag(5, 2, 0.5, seed=3), "t", 2),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fields", default="2,3,4,5,7,8,9",
                        help="comma-separated field orders (default 2,3,4,5,7,8,9)")
    parser.add_argument("--budget", type=int, default=1 << 19,
                        help="max branches of the exact evaluator")
    args = parser.parse_args()

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["network", "q", "exact", "thm1", "thm2", "thm3",
                     "lower", "exact_frac", "thm1_frac"])
    for name, (net, sink, w) in NETWORKS.items():
        for q in (int(x) for x in args.fields.split(",")):
            field = make_field_of_order(q)
            rep = full_report(net, sink, w, field)
            exact = exact_frac = ""
            try:
                frac = exact_failure(net, w, field, sink, budget=args.budget).fraction
                exact, exact_frac = decimal_str(frac), frac_str(frac)
            except EnumerationBudgetError:
                pass
            writer.writerow([
                name, q, exact,
                decimal_str(rep.thm1), decimal_str(rep.thm2), decimal_str(rep.thm3),
                decimal_str(rep.lower), exact_frac, frac_str(rep.thm1),
            ])
    return 0


if __name__ == "__main__":
    sys.exit(main())
