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
import gc
import io
import json
import locale  # noqa: F401  argparse's gettext imports it at its first text: here, not in the call
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

from . import bounds as bnd
from . import netmodel, rlncsim
from .flowpaths import InfeasibleRateError, min_cut
from .galois import make_field_of_order, parse_prime_power
from .netmodel import Network
from .rlncsim import DEFAULT_ENUMERATION_BUDGET, EnumerationBudgetError


class UsageError(ValueError):
    pass


def decimal_str(x: Fraction) -> str:
    """x rendered with 10 significant digits."""
    with localcontext() as ctx:
        ctx.prec = 10
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


def _setup(args) -> tuple[Network, str, str, int]:
    """The network, its display name, the sink and the rate of a report
    command.  The rate is --rate, else the file's hint, and never above the
    sink's min-cut, which also bounds every per-rate allocation downstream."""
    if bool(args.network) == bool(args.gen):
        raise UsageError("provide exactly one of --network FILE or --gen SPEC")
    if args.network:
        net, name = netmodel.read_network(args.network), args.network
    else:
        net, name = parse_gen_spec(args.gen), args.gen
    sink = args.sink
    if sink is None:
        if len(net.sinks) != 1:
            raise UsageError(f"network has sinks {sorted(net.sinks)}; choose one with --sink")
        sink = next(iter(net.sinks))
    elif sink not in net.sinks:
        raise UsageError(f"{sink} is not a sink of this network")
    if args.rate is not None and args.rate < 1:
        raise UsageError("--rate must be >= 1")
    w = args.rate or net.rate_hint
    if not w:
        raise UsageError("network carries no rate hint; set --rate")
    c_t = min_cut(net, sink)
    if w > c_t:
        raise InfeasibleRateError(w, c_t, sink)
    return net, name, sink, w


def _print_report(args, name: str, sink: str, q: int, w: int, lines: list[str], body: dict) -> int:
    """Text: `network:` and `sink:`, then the report's lines.  JSON: the
    {network, sink, q, w} header, then the report's body."""
    if args.format == "json":
        doc = {"network": name, "sink": sink, "q": q, "w": w}
        doc.update(body)
        print(json.dumps(doc, indent=2))
    else:
        print("\n".join([f"network: {name}", f"sink: {sink}", *lines]))
    return 0


# --- subcommands ---------------------------------------------------------------

def _cmd_gen(args) -> int:
    build, _, params = _GENERATORS[args.kind]
    net = getattr(netmodel, build)(*(getattr(args, k) for k, _ in params))
    netmodel.write_network(net, args.out or sys.stdout)
    cuts = " ".join(f"min_cut[{t}]={min_cut(net, t)}" for t in sorted(net.sinks))
    print(f"nodes={len(net.nodes)} channels={len(net.channels)} {cuts}", file=sys.stderr)
    return 0


def _cmd_bounds(args) -> int:
    net, name, sink, w = _setup(args)
    q = args.field
    parse_prime_power(q)  # the bounds need q alone, not its field
    report = bnd.full_report(net, sink, w)
    values = report.bounds(q)
    return _print_report(args, name, sink, q, w, [
        f"q: {q}  w: {w}  C_t: {report.c_t}  delta_t: {report.delta_t}",
        f"r: {report.r}  R_t: {report.r_min} ({report.rt_mode})  J: {report.j_count}",
        # the profile lists the path set's internal nodes in topological order
        f"cut out-profile: {list(report.cut_out_sizes)}  order: canonical",
        "bounds:",
        *(f"  {label:<6} {frac_str(v):<16} {decimal_str(v)}" for label, v in values.items()),
    ], report.as_dict(values))


def _cmd_simulate(args) -> int:
    if args.seed is None:
        raise UsageError("simulate requires an explicit --seed")
    if args.trials is None:
        raise UsageError("simulate requires --trials >= 1")
    net, name, sink, w = _setup(args)
    field = make_field_of_order(args.field)
    est = rlncsim.estimate_failure(net, w, field, sink, args.trials, args.seed, workers=args.workers)
    p_hat = Fraction(est.failures, est.trials)
    return _print_report(args, name, sink, field.q, w, [
        f"q: {field.q}  w: {w}",
        f"trials: {est.trials}  failures: {est.failures}  p_hat: {decimal_str(p_hat)}",
        f"wilson99: [{est.ci_low:.10g}, {est.ci_high:.10g}]",
        f"seed: {est.seed}",
    ], {"estimate": dataclasses.asdict(est)})  # trials, failures, p_hat, ci_low, ci_high, seed


def _cmd_exact(args) -> int:
    net, name, sink, w = _setup(args)
    field = make_field_of_order(args.field)
    result = rlncsim.exact_failure(net, w, field, sink, budget=args.budget)
    frac = result.fraction
    return _print_report(args, name, sink, field.q, w, [
        f"q: {field.q}  w: {w}",
        f"exact: {frac_str(frac)} = {decimal_str(frac)}",
        f"slots: {result.num_slots}  assignments: {result.assignments}  failing: {result.failures}",
    ], {"exact": {
        "num": str(result.numerator),
        "den": str(result.denominator),
        "failures": str(result.failures),
        "assignments": str(result.assignments),
        "slots": result.num_slots,
    }})


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
    if not orders or len(set(orders)) < len(orders):
        raise UsageError(f"sweep requires --fields orders, none repeated, got {args.fields!r}")
    fields = [make_field_of_order(q) for q in orders]
    net, name, sink, w = _setup(args)

    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=SWEEP_COLUMNS, lineterminator="\n")
    writer.writeheader()
    report = bnd.full_report(net, sink, w)  # the same for every field
    shared = {
        "network": name,
        "sink": sink,
        "w": w,
        "C_t": report.c_t,
        "delta_t": report.delta_t,
        "r": report.r,
        "R_t": report.r_min,
        "rt_mode": report.rt_mode,
        "J": report.j_count,
    }
    for field in fields:
        row = {**shared, "q": field.q}
        for label, value in report.bounds(field.q).items():
            row[f"{label}_frac"], row[label] = frac_str(value), decimal_str(value)
        try:  # the exact columns stay blank when the budget is too small
            exact = rlncsim.exact_failure(net, w, field, sink, budget=args.budget).fraction
            row["exact_frac"], row["exact"] = frac_str(exact), decimal_str(exact)
        except EnumerationBudgetError:
            pass
        if args.trials is not None:
            est = rlncsim.estimate_failure(net, w, field, sink, args.trials, args.seed, args.workers)
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
}
# every subcommand accepts --workers; only simulate and sweep start worker processes
_COMMON = ("--network", "--gen", "--sink", "--rate", "--workers")

# name, help, handler, options beyond _COMMON, --format choices (first is the default)
_SUBCOMMANDS = (
    ("bounds", "compute the bound report", _cmd_bounds,
     ("--field",), ("text", "json")),
    ("simulate", "Monte Carlo failure estimate", _cmd_simulate,
     ("--field", "--trials", "--seed"), ("text", "json")),
    ("exact", "exact failure probability by a frontier dynamic program", _cmd_exact,
     ("--field", "--budget"), ("text", "json")),
    ("sweep", "bounds/exact/estimate across field orders (CSV)", _cmd_sweep,
     ("--fields", "--trials", "--seed", "--budget"), ("csv",)),
)


# every subcommand name, in the order the full parser lists them
_COMMANDS = ("gen", *(row[0] for row in _SUBCOMMANDS))


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `rlncfail` parser.  Given a subcommand name (one of `_COMMANDS`),
    it builds that subcommand's parser alone under the top-level one, whose
    usage line still lists every subcommand; `main` does so when the call
    names its subcommand, and builds no parser it does not use.  Either
    parser reads such a call to the same values and writes the same help and
    errors."""
    parser = argparse.ArgumentParser(
        prog="rlncfail",
        description="Failure probability of random linear network coding at a sink node",
    )
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{" + ",".join(_COMMANDS) + "}",
    )

    if command in (None, "gen"):
        gen = sub.add_parser("gen", help="generate a network file")
        gen_sub = gen.add_subparsers(dest="kind", required=True)
        for kind, (_, help_text, params) in _GENERATORS.items():
            sp = gen_sub.add_parser(kind, help=help_text)
            for k, conv in params:
                sp.add_argument(f"--{k}", type=conv, required=True)
            sp.add_argument("--out", help="write the network file here instead of stdout")
            sp.set_defaults(func=_cmd_gen)

    for name, help_text, func, options, formats in _SUBCOMMANDS:
        if command not in (None, name):
            continue
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
    budget = getattr(args, "budget", 1)
    if budget < 1:
        raise UsageError(f"--budget must be >= 1, got {budget}")
    if budget > rlncsim.MAX_ENUMERATION_BUDGET:
        raise UsageError(f"--budget must be at most {rlncsim.MAX_ENUMERATION_BUDGET}, got {budget}")
    trials = getattr(args, "trials", None)
    if trials is not None and not 1 <= trials <= rlncsim.MAX_TRIALS:
        raise UsageError(f"trials must be in 1..{rlncsim.MAX_TRIALS}, got {trials}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    gc.freeze()  # the call's collections skip what the imports made, and so do a forked worker's
    try:
        args = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
        _check_sizes(args)
        return args.func(args)
    except SystemExit as exc:  # argparse's: 0 after --help, 2 on a bad option
        return 2 if exc.code not in (0, None) else 0
    except InfeasibleRateError as exc:  # a ValueError, so ahead of that clause
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except EnumerationBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:  # UsageError and the network errors too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        gc.unfreeze()


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
