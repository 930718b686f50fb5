"""One benchmark sample, run in a fresh interpreter by `run.py`.

    python3 perfbench/child.py WORKLOAD SEED WORKERS MODE [TRACE_OUT]

MODE is `setup` (set-up only), `run` or `trace`.  The child times the set-up
a CLI user pays on every run, importing `rlncfail.cli` and then building the
workload's network and field, and then one `cli.main(argv)` call, and prints
one JSON object.  The CLI's stdout is captured for checking.  After the
set-up and after the call it times a fixed calibration loop (`calibrate`),
so that `run.py` can rescale both times to a reference machine speed.  In `trace` mode
the call runs under the tracer, whose spans are written to TRACE_OUT and
whose per-layer metrics join the JSON.

Nothing else is imported before the timed import, so modules the package
shares with the benchmark are not preloaded.
"""

import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _reach(net, sink):
    """Nodes from which the sink is reachable, the sink included."""
    seen = {sink}
    todo = [sink]
    while todo:
        for c in net.in_channels(todo.pop()):
            if c.tail not in seen:
                seen.add(c.tail)
                todo.append(c.tail)
    return seen


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop plus a fixed numpy loop, best of
    two each: how fast this shared machine runs at the moment."""
    import numpy as np

    def interpreted():
        t0 = perf_counter()
        d, x = {}, 0
        for i in range(300000):
            x = (x * 1103515245 + 12345) & 0xFFFFFFFF
            d[x & 1023] = i
        return perf_counter() - t0

    def vectorized():  # small arrays, so the peak RSS stays the call's own
        a = np.arange(1 << 13, dtype=np.int64)
        t0 = perf_counter()
        for _ in range(1280):
            b = (a * 3 + 1) % 7
            a = np.where(b > 3, a, b)
        return perf_counter() - t0

    return min(interpreted(), interpreted()) + min(vectorized(), vectorized())


def main() -> int:
    name, seed, workers, mode = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
    sys.path.insert(0, SRC)

    t0 = perf_counter()
    from rlncfail import cli, galois, rlncsim

    t1 = perf_counter()
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"rlncfail imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import contextlib
    import io
    import json
    import resource

    from workloads import ALL  # this file's directory is sys.path[1]

    wl = ALL[name]
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    def build():
        return cli.parse_gen_spec(wl.gen), galois.make_field_of_order(wl.field)

    t2 = perf_counter()
    net, _ = tracer.span("bench.setup", build)() if tracer else build()
    t3 = perf_counter()
    out = {"setup_s": (t1 - t0) + (t3 - t2), "setup_cal_s": calibrate()}
    if mode == "setup":
        print(json.dumps(out))
        return 0

    main_fn = tracer.span("cli.main", cli.main) if tracer else cli.main
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t4 = perf_counter()
        rc = main_fn(wl.argv(seed, workers))
        t5 = perf_counter()
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    import numpy

    out.update(
        exit=rc,
        stdout=buf.getvalue(),
        wall_s=t5 - t4,
        cal_s=(out["setup_cal_s"] + calibrate()) / 2,
        peak_rss_mb=kib / 1024,
        python=sys.version.split()[0],
        numpy=numpy.__version__,
    )
    if tracer is not None:
        tracer.uninstall()
        sink = wl.sink or next(iter(net.sinks))
        w = wl.rate or net.rate_hint
        slots = rlncsim.coefficient_slots(net, w)
        useful = _reach(net, sink)
        layers = tracer.metrics(accepted_draws=(wl.trials or 0) * len(slots))
        layers["rlncsim.slots"] = len(slots)
        layers["rlncsim.useful_prop_frac"] = (
            sum(net.channel(s.out_id).head in useful for s in slots) / len(slots)
        )
        out["layers"] = layers
        tracer.write(sys.argv[5])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
