"""Span tracer for one in-process `rlncfail` CLI invocation.

`Tracer.install` wraps the package's public functions where the calling
module looks them up: a module attribute such as `rlncfail.bounds.min_cut`
(the name `bounds` imported from `flowpaths`), or a class attribute such as
`Network.__init__` and `FieldSpec.mul`, which every caller reaches.  The
program's files are not changed.

Calls at layer boundaries become spans (name, start, end, parent), kept in
memory and written out at the end.  Per-element hot calls (scalar field ops,
uniform draws, RNG word batches) would swamp a span list, so they are
aggregated per name as a call count plus total time, charged to the span
that was open when they ran.  A span's self time is its duration minus its
child spans and the aggregated calls charged to it; the layer of a span is
the module prefix of its name.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter

# (module, attribute, span name): the public functions the workloads reach,
# traced where their caller finds them.
SPAN_TARGETS = (
    # called by cli through module attributes
    ("rlncfail.bounds", "full_report", "bounds.full_report"),
    ("rlncfail.rlncsim", "estimate_failure", "rlncsim.estimate_failure"),
    ("rlncfail.rlncsim", "exact_failure", "rlncsim.exact_failure"),
    ("rlncfail.netmodel", "random_dag", "netmodel.random_dag"),
    ("rlncfail.netmodel", "butterfly", "netmodel.butterfly"),
    # flowpaths functions as bound inside bounds
    ("rlncfail.bounds", "min_cut", "flowpaths.min_cut"),
    ("rlncfail.bounds", "disjoint_paths", "flowpaths.disjoint_paths"),
    ("rlncfail.bounds", "cut_sequence", "flowpaths.cut_sequence"),
    ("rlncfail.bounds", "min_internal_paths", "flowpaths.min_internal_paths"),
    # random_dag imports min_cut from flowpaths at call time
    ("rlncfail.flowpaths", "min_cut", "flowpaths.min_cut"),
    # netmodel.topological_order as bound inside its callers
    ("rlncfail.rlncsim", "topological_order", "netmodel.topological_order"),
    ("rlncfail.flowpaths", "topological_order", "netmodel.topological_order"),
)

# (module, class, method, span name): constructors, reached by every caller.
CLASS_SPAN_TARGETS = (
    ("rlncfail.netmodel", "Network", "__init__", "netmodel.Network"),
    ("rlncfail.galois", "FieldSpec", "__init__", "galois.FieldSpec"),
)

SCALAR_OPS = ("add", "sub", "mul", "inv")

# (name, unit, better, expected effect): every per-layer metric the traced
# run reports, with the end-to-end metric and workload it should move.
LAYER_METRICS = (
    ("cli.self_s", "s", "lower", "argument parsing and report formatting: norm_wall_s everywhere, small everywhere"),
    ("netmodel.network_builds", "count", "lower", "norm_wall_s on bounds-dag30; ~2 elsewhere (the generator)"),
    ("netmodel.network_build_s", "s", "lower", "norm_wall_s on bounds-dag30; ~0 elsewhere"),
    ("netmodel.topological_order_calls", "count", "lower", "one per rlncsim compile, 16 on simulate-dag12"),
    ("netmodel.topological_order_s", "s", "lower", "norm_wall_s on simulate-dag12"),
    ("flowpaths.min_cut_s", "s", "lower", "norm_wall_s on bounds-dag30; no change on the other three"),
    ("flowpaths.disjoint_paths_s", "s", "lower", "norm_wall_s on bounds-dag30; no change on the other three"),
    ("flowpaths.cut_sequence_s", "s", "lower", "norm_wall_s on bounds-dag30; no change on the other three"),
    ("flowpaths.min_internal_paths_s", "s", "lower", "norm_wall_s on bounds-dag30; no change on the other three"),
    ("bounds.self_s", "s", "lower", "rational bound evaluation: wall_s on bounds-dag30"),
    ("galois.field_build_s", "s", "lower", "setup_s on every workload"),
    ("galois.words_drawn", "count", "lower", "work_per_s on simulate-dag12; 0 on exact-butterfly-q4"),
    ("galois.accept_ratio", "ratio", "higher", "work_per_s on simulate-dag12; 0 when no words are drawn"),
    ("galois.draw_s", "s", "lower", "work_per_s on simulate-dag12; 0 on exact-butterfly-q4"),
    ("galois.scalar_ops", "count", "lower", "work_per_s on simulate-gf1024; non-zero elsewhere is a fallback"),
    ("galois.scalar_op_s", "s", "lower", "work_per_s on simulate-gf1024; 0 elsewhere"),
    ("rlncsim.kernel_s", "s", "lower", "work_per_s on exact-butterfly-q4 and simulate-dag12; no change on bounds-dag30"),
    ("rlncsim.slots", "count", "lower", "N, fixed by the workload's network"),
    ("rlncsim.useful_prop_frac", "ratio", "higher", "share of slots whose out-channel reaches the sink: what sink pruning can save"),
    ("rlncsim.parallel_efficiency", "ratio", "higher", "wall at 1 worker / (2 x wall at 2 workers): ~1 on simulate-dag12, ~0.5 where unparallelized"),
    ("bench.trace_overhead_frac", "ratio", "lower", "traced wall / untraced wall at 1 worker, minus 1"),
)


class _Aggregate:
    __slots__ = ("calls", "seconds", "words")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.words = 0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.charged: dict[int, float] = {}  # span index -> aggregated seconds inside it
        self.aggregates: dict[str, _Aggregate] = {}
        self._open: list[int] = []
        self._in_aggregate = False
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def span(self, name: str, fn):
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self._open.pop()

        return traced

    def aggregate(self, name: str, fn):
        """Wrap fn as an aggregated call.  Nested aggregated calls (such as
        the mul calls inside an extension-field inv) are counted but timed
        only by the outermost one."""
        agg = self.aggregates.setdefault(name, _Aggregate())

        def traced(*args):
            agg.calls += 1
            if self._in_aggregate:
                return fn(*args)
            self._in_aggregate = True
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                dt = perf_counter() - t0
                self._in_aggregate = False
                agg.seconds += dt
                parent = self._open[-1] if self._open else -1
                self.charged[parent] = self.charged.get(parent, 0.0) + dt

        return traced

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every target that exists; a name a later version of the
        package drops is skipped and its metrics read 0."""
        for mod_name, attr, name in SPAN_TARGETS:
            mod = importlib.import_module(mod_name)
            if attr in mod.__dict__:
                self._patch(mod, attr, self.span(name, mod.__dict__[attr]))
        for mod_name, cls_name, attr, name in CLASS_SPAN_TARGETS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            if attr in cls.__dict__:
                self._patch(cls, attr, self.span(name, cls.__dict__[attr]))
        galois = importlib.import_module("rlncfail.galois")
        for op in SCALAR_OPS:
            if op in galois.FieldSpec.__dict__:
                fn = galois.FieldSpec.__dict__[op]
                self._patch(galois.FieldSpec, op, self.aggregate("galois.scalar_op", fn))
        rlncsim = importlib.import_module("rlncfail.rlncsim")
        draw = self.aggregates.setdefault("galois.draw", _Aggregate())
        if "uniform_int" in rlncsim.__dict__:
            timed_uniform_int = self.aggregate("galois.draw", rlncsim.uniform_int)

            def uniform_int(q, rng):  # scalar path: one word per counter step
                start = rng.counter
                value = timed_uniform_int(q, rng)
                draw.words += rng.counter - start
                return value

            self._patch(rlncsim, "uniform_int", uniform_int)
        if "words_at" in rlncsim.__dict__:
            timed_words_at = self.aggregate("galois.draw", rlncsim.words_at)

            def words_at(keys, counters):  # vector path: one word per key
                draw.words += len(keys)
                return timed_words_at(keys, counters)

            self._patch(rlncsim, "words_at", words_at)
        if "stream_keys_array" in rlncsim.__dict__:
            self._patch(
                rlncsim,
                "stream_keys_array",
                self.aggregate("galois.draw", rlncsim.stream_keys_array),
            )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s[2] - s[1] - self.charged.get(i, 0.0) for i, s in enumerate(self.spans)]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def outermost(self, name: str) -> list[list]:
        """Spans of this name not nested in another span of the same name."""
        out = []
        for s in self.spans:
            if s[0] != name:
                continue
            p = s[3]
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                out.append(s)
        return out

    def total(self, name: str) -> float:
        return sum((s[2] - s[1] for s in self.outermost(name)), 0.0)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def layer_self(self, layer: str) -> float:
        own = self.self_times()
        return sum((t for s, t in zip(self.spans, own) if s[0].split(".", 1)[0] == layer), 0.0)

    def metrics(self, accepted_draws: int) -> dict[str, float]:
        """The per-layer metrics the trace alone determines."""
        ops = self.aggregates.get("galois.scalar_op", _Aggregate())
        draw = self.aggregates.get("galois.draw", _Aggregate())
        return {
            "cli.self_s": self.layer_self("cli"),
            "netmodel.network_builds": self.count("netmodel.Network"),
            "netmodel.network_build_s": self.total("netmodel.Network"),
            "netmodel.topological_order_calls": self.count("netmodel.topological_order"),
            "netmodel.topological_order_s": self.total("netmodel.topological_order"),
            "flowpaths.min_cut_s": self.total("flowpaths.min_cut"),
            "flowpaths.disjoint_paths_s": self.total("flowpaths.disjoint_paths"),
            "flowpaths.cut_sequence_s": self.total("flowpaths.cut_sequence"),
            "flowpaths.min_internal_paths_s": self.total("flowpaths.min_internal_paths"),
            "bounds.self_s": self.layer_self("bounds"),
            "galois.field_build_s": self.total("galois.FieldSpec"),
            "galois.words_drawn": draw.words,
            "galois.accept_ratio": accepted_draws / draw.words if draw.words else 0.0,
            "galois.draw_s": draw.seconds,
            "galois.scalar_ops": ops.calls,
            "galois.scalar_op_s": ops.seconds,
            "rlncsim.kernel_s": self.layer_self("rlncsim"),
        }

    def write(self, path) -> None:
        doc = {
            "spans": [
                {"name": n, "start": a, "end": b, "parent": p} for n, a, b, p in self.spans
            ],
            "aggregates": {
                k: {"calls": v.calls, "seconds": v.seconds, "words": v.words}
                for k, v in self.aggregates.items()
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
