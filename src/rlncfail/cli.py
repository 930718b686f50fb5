"""Command-line surface.

Subcommands: `gen` writes network files, `bounds` prints the bound report,
`simulate` runs the Monte Carlo estimator, `exact` runs the exact frontier
dynamic program, and `sweep` emits one CSV row per field order.

Reports go to stdout, diagnostics to stderr.  Exit codes: 0 success,
2 usage/config error, 3 infeasible rate, 4 exact-evaluation budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

from . import bounds as bnd
from . import netmodel, rlncsim
from .flowpaths import InfeasibleRateError, min_cut
from .galois import make_field_of_order
from .netmodel import Network
from .rlncsim import DEFAULT_ENUMERATION_BUDGET, EnumerationBudgetError


class UsageError(ValueError):
    pass


def decimal_str(x: Fraction, digits: int = 10) -> str:
    """x rendered with the given number of significant digits."""
    with localcontext() as ctx:
        ctx.prec = digits
        d = Decimal(x.numerator) / Decimal(x.denominator)
    return str(d)


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


# generator name -> (netmodel builder looked up at call time, `gen` help
# text, its parameters in call order with their types); both the inline
# --gen spec and the `gen` subcommand read this table
_GENERATORS = {
    "plait": ("plait", "chain with w parallel channels per stage", (("w", int), ("r", int))),
    "butterfly": ("butterfly", "the standard two-sink butterfly", ()),
    "random": (
        "random_dag",
        "seeded random DAG with min-cut >= w",
        (("internal", int), ("w", int), ("density", float), ("seed", int)),
    ),
}


def parse_gen_spec(spec: str) -> Network:
    """Inline generator spec: plait:w=2,r=3 | butterfly | random:internal=5,w=2,density=0.4,seed=7"""
    name, _, rest = spec.partition(":")
    kv: dict[str, str] = {}
    if rest:
        for part in rest.split(","):
            k, sep, v = part.partition("=")
            if not sep:
                raise UsageError(f"bad generator parameter {part!r} in {spec!r}")
            if k in kv:
                raise UsageError(f"generator parameter {k!r} repeated in {spec!r}")
            kv[k] = v
    if name not in _GENERATORS:
        raise UsageError(f"unknown generator {name!r} (expected plait, butterfly, or random)")
    build, _, params = _GENERATORS[name]
    missing = [k for k, _ in params if k not in kv]
    if missing:
        raise UsageError(f"generator {name!r} is missing parameter {missing[0]!r}")
    unknown = sorted(set(kv) - {k for k, _ in params})
    if unknown:
        raise UsageError(f"generator {name!r} got unknown parameters {unknown}")
    try:
        return getattr(netmodel, build)(*(conv(kv[k]) for k, conv in params))
    except ValueError as exc:
        raise UsageError(f"bad generator spec {spec!r}: {exc}") from None


def _load_network(args) -> tuple[Network, str]:
    if bool(args.network) == bool(args.gen):
        raise UsageError("provide exactly one of --network FILE or --gen SPEC")
    if args.network:
        return netmodel.read_network(args.network), args.network
    return parse_gen_spec(args.gen), args.gen


def _resolve_sink(net: Network, sink: str | None) -> str:
    if sink is not None:
        if sink not in net.sinks:
            raise UsageError(f"{sink} is not a sink of this network")
        return sink
    if len(net.sinks) == 1:
        return next(iter(net.sinks))
    raise UsageError(f"network has sinks {sorted(net.sinks)}; choose one with --sink")


def _resolve_rate(net: Network, sink: str, rate: int | None) -> int:
    """--rate, else the file's hint; never above the sink's min-cut, which
    also bounds every per-rate allocation downstream."""
    if rate is not None:
        if rate < 1:
            raise UsageError("--rate must be >= 1")
        w = rate
    elif net.rate_hint:
        w = net.rate_hint
    else:
        raise UsageError("network carries no rate hint; set --rate")
    c_t = min_cut(net, sink)
    if w > c_t:
        raise InfeasibleRateError(w, c_t, sink)
    return w


# --- subcommands ---------------------------------------------------------------

def _cmd_gen(args) -> int:
    build, _, params = _GENERATORS[args.kind]
    net = getattr(netmodel, build)(*(getattr(args, k) for k, _ in params))
    netmodel.write_network(net, args.out or sys.stdout)
    cuts = " ".join(
        f"min_cut[{t}]={min_cut(net, t)}" for t in sorted(net.sinks)
    )
    print(
        f"nodes={len(net.nodes)} channels={len(net.channels)} {cuts}",
        file=sys.stderr,
    )
    return 0


# the bound report's fields, in the order the text report and the sweep list them
_BOUND_LABELS = ("lower", "thm1", "thm2", "cor1", "thm3")


def _report_header(name: str, sink: str, q: int, w: int) -> dict:
    return {"network": name, "sink": sink, "q": q, "w": w}


def _cmd_bounds(args) -> int:
    net, name = _load_network(args)
    sink = _resolve_sink(net, args.sink)
    w = _resolve_rate(net, sink, args.rate)
    field = make_field_of_order(args.field)
    report = bnd.full_report(net, sink, w, field, rt_mode=args.rt)
    if args.format == "json":
        doc = _report_header(name, sink, field.q, w)
        doc.update({k: v for k, v in report.as_dict().items() if k not in doc})
        print(json.dumps(doc, indent=2))
        return 0
    rt_tag = "exact" if report.r_min_exact else "heuristic"
    print(f"network: {name}")
    print(f"sink: {sink}")
    print(f"q: {report.q}  w: {report.w}  C_t: {report.c_t}  delta_t: {report.delta_t}")
    print(f"r: {report.r}  R_t: {report.r_min} ({rt_tag})  J: {report.j_count}")
    # the profile lists the path set's internal nodes in topological order
    print(f"cut out-profile: {list(report.cut_out_sizes)}  order: canonical")
    print("bounds:")
    for label in _BOUND_LABELS:
        value = getattr(report, label)
        print(f"  {label:<6} {frac_str(value):<16} {decimal_str(value)}")
    return 0


def _cmd_simulate(args) -> int:
    if args.seed is None:
        raise UsageError("simulate requires an explicit --seed")
    if args.trials is None:
        raise UsageError("simulate requires --trials >= 1")
    net, name = _load_network(args)
    sink = _resolve_sink(net, args.sink)
    w = _resolve_rate(net, sink, args.rate)
    field = make_field_of_order(args.field)
    est = rlncsim.estimate_failure(
        net, w, field, sink, args.trials, args.seed, workers=args.workers
    )
    if args.format == "json":
        doc = _report_header(name, sink, field.q, w)
        doc["estimate"] = dataclasses.asdict(est)  # trials, failures, p_hat, ci_low, ci_high, seed
        print(json.dumps(doc, indent=2))
        return 0
    p_hat = Fraction(est.failures, est.trials)
    print(f"network: {name}")
    print(f"sink: {sink}")
    print(f"q: {field.q}  w: {w}")
    print(f"trials: {est.trials}  failures: {est.failures}  p_hat: {decimal_str(p_hat)}")
    print(f"wilson99: [{est.ci_low:.10g}, {est.ci_high:.10g}]")
    print(f"seed: {est.seed}")
    return 0


def _cmd_exact(args) -> int:
    net, name = _load_network(args)
    sink = _resolve_sink(net, args.sink)
    w = _resolve_rate(net, sink, args.rate)
    field = make_field_of_order(args.field)
    result = rlncsim.exact_failure(net, w, field, sink, budget=args.budget)
    if args.format == "json":
        doc = _report_header(name, sink, field.q, w)
        doc["exact"] = {
            "num": str(result.numerator),
            "den": str(result.denominator),
            "failures": str(result.failures),
            "assignments": str(result.assignments),
            "slots": result.num_slots,
        }
        print(json.dumps(doc, indent=2))
        return 0
    frac = result.fraction
    print(f"network: {name}")
    print(f"sink: {sink}")
    print(f"q: {field.q}  w: {w}")
    print(f"exact: {frac_str(frac)} = {decimal_str(frac)}")
    print(
        f"slots: {result.num_slots}  assignments: {result.assignments}"
        f"  failing: {result.failures}"
    )
    return 0


SWEEP_COLUMNS = [
    "network", "sink", "q", "w", "C_t", "delta_t", "r", "R_t", "rt_mode", "J",
    "lower_frac", "lower", "thm1_frac", "thm1", "thm2_frac", "thm2",
    "cor1_frac", "cor1", "thm3_frac", "thm3",
    "exact_frac", "exact", "estimate", "ci_low", "ci_high", "trials", "seed",
]


def _cmd_sweep(args) -> int:
    if not args.fields:
        raise UsageError("sweep requires --fields Q1,Q2,...")
    if args.trials is not None and args.seed is None:
        raise UsageError("sweep with --trials requires an explicit --seed")
    try:
        orders = [int(x) for x in args.fields.split(",") if x]
    except ValueError as exc:
        raise UsageError(f"bad --fields list: {exc}") from None
    if not orders:
        raise UsageError("sweep requires a nonempty --fields list")
    fields = [make_field_of_order(q) for q in orders]
    net, name = _load_network(args)
    sink = _resolve_sink(net, args.sink)
    w = _resolve_rate(net, sink, args.rate)

    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=SWEEP_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for field in fields:
        report = bnd.full_report(net, sink, w, field, rt_mode=args.rt)
        row = {
            "network": name,
            "sink": sink,
            "q": field.q,
            "w": w,
            "C_t": report.c_t,
            "delta_t": report.delta_t,
            "r": report.r,
            "R_t": report.r_min,
            "rt_mode": "exact" if report.r_min_exact else "heuristic",
            "J": report.j_count,
        }
        for label in _BOUND_LABELS:
            value = getattr(report, label)
            row[f"{label}_frac"], row[label] = frac_str(value), decimal_str(value)
        try:  # the exact columns stay blank when the budget is too small
            exact = rlncsim.exact_failure(net, w, field, sink, budget=args.budget).fraction
            row["exact_frac"], row["exact"] = frac_str(exact), decimal_str(exact)
        except EnumerationBudgetError:
            pass
        if args.trials is not None:
            est = rlncsim.estimate_failure(
                net, w, field, sink, args.trials, args.seed, workers=args.workers
            )
            row["estimate"] = decimal_str(Fraction(est.failures, est.trials))
            row["ci_low"] = f"{est.ci_low:.10g}"
            row["ci_high"] = f"{est.ci_high:.10g}"
            row["trials"] = est.trials
            row["seed"] = est.seed
        writer.writerow(row)
    sys.stdout.write(out.getvalue())
    return 0


# --- parser --------------------------------------------------------------------

# every option a subcommand can take; each subcommand below names the ones it reads
_OPTIONS = {
    "--network": dict(help="network file to read"),
    "--gen": dict(help="inline generator spec, e.g. plait:w=2,r=3"),
    "--sink": dict(help="sink node id (default: the only sink)"),
    "--rate": dict(type=int, help="information rate w (default: file hint)"),
    "--field": dict(type=int, required=True, help="field order q (prime power)"),
    "--fields": dict(help="comma-separated field orders to sweep"),
    "--trials": dict(type=int, help="Monte Carlo trial count"),
    "--seed": dict(type=int, help="master seed for all randomness"),
    "--workers": dict(type=int, default=1, help="parallel workers (default 1)"),
    "--budget": dict(
        type=int, default=DEFAULT_ENUMERATION_BUDGET,
        help="max branches of the exact evaluator: states x q^(rank x out-channels), summed over nodes",
    ),
    "--rt": dict(
        choices=("exact", "heuristic"), default="exact",
        help="search mode for the minimal path-node count R_t",
    ),
}
# every subcommand accepts --workers; only simulate and sweep start worker processes
_COMMON = ("--network", "--gen", "--sink", "--rate", "--workers")

# name, help, handler, options beyond _COMMON, --format choices (first is the default)
_SUBCOMMANDS = (
    ("bounds", "compute the bound report", _cmd_bounds,
     ("--field", "--rt"), ("text", "json")),
    ("simulate", "Monte Carlo failure estimate", _cmd_simulate,
     ("--field", "--trials", "--seed"), ("text", "json")),
    ("exact", "exact failure probability by a frontier dynamic program", _cmd_exact,
     ("--field", "--budget"), ("text", "json")),
    ("sweep", "bounds/exact/estimate across field orders (CSV)", _cmd_sweep,
     ("--fields", "--trials", "--seed", "--budget", "--rt"), ("csv",)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rlncfail",
        description="Failure probability of random linear network coding at a sink node",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a network file")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    for kind, (_, help_text, params) in _GENERATORS.items():
        sp = gen_sub.add_parser(kind, help=help_text)
        for k, conv in params:
            sp.add_argument(f"--{k}", type=conv, required=True)
        sp.add_argument("--out", help="write the network file here instead of stdout")
        sp.set_defaults(func=_cmd_gen)

    for name, help_text, func, options, formats in _SUBCOMMANDS:
        sp = sub.add_parser(name, help=help_text)
        for opt in _COMMON + options:
            sp.add_argument(opt, **_OPTIONS[opt])
        sp.add_argument("--format", choices=formats, default=formats[0])
        sp.set_defaults(func=func)
    return parser


def _check_sizes(args) -> None:
    """Bound the sizes a user sets before any network is loaded."""
    if getattr(args, "workers", 1) < 1:
        raise UsageError(f"--workers must be >= 1, got {args.workers}")
    trials = getattr(args, "trials", None)
    if trials is not None and not 1 <= trials <= rlncsim.MAX_TRIALS:
        raise UsageError(f"trials must be in 1..{rlncsim.MAX_TRIALS}, got {trials}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _check_sizes(args)
        return args.func(args)
    except InfeasibleRateError as exc:  # a ValueError, so ahead of that clause
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except EnumerationBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:  # UsageError and the network errors too
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
