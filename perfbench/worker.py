"""One workload in one process: set up, check backend parity, then either
time operations for --seconds (untraced) or run a fixed set of operations
untraced and again traced (--trace 1).  Prints one JSON document.

Started by run.py with PYTHONPATH pointing at the checkout's src/; not
meant to be run by hand.
"""

from __future__ import annotations

import argparse
import array
import json
import math
import os
import platform
import resource
import sys
import tempfile
import traceback
from time import perf_counter

from workloads import WORKLOADS

LAYERS = ("kernels", "trainer", "copula", "network", "problogic", "surface",
          "cli")
MAX_LOGGED = 5
# The reference speed: the speed at which calibrate() takes CAL_REF_S.
CAL_LOOPS = 6000
CAL_REF_S = 0.003
CAL_EVERY_S = 0.2


class Tally:
    """Attempted and failed operation counts, with the first few problems
    written to stderr."""

    def __init__(self, name):
        self.name = name
        self.attempted = 0
        self.failed = 0

    def record(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= MAX_LOGGED:
                print(f"{self.name}: {what!r:.120} failed: "
                      f"{'; '.join(problems)}", file=sys.stderr)


def attempt(workload, op, tally, timer=None):
    """Run and check one operation; returns its duration in seconds.
    An exception is counted as a failure and the run goes on."""
    t0 = perf_counter()
    try:
        out = timer(workload.run, op) if timer else workload.run(op)
    except Exception:
        dt = perf_counter() - t0
        tally.record(op, [traceback.format_exc(limit=3).strip()])
        return dt
    dt = perf_counter() - t0
    try:
        problems = workload.check(op, out)
    except Exception:
        problems = [f"oracle raised: {traceback.format_exc(limit=3)}"]
    tally.record(op, problems)
    return dt


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100].  Sorted as a float64 array:
    a sorted list of float objects would grow peak RSS with the number of
    operations, and peak RSS is a reported metric."""
    import numpy as np
    ordered = np.sort(np.asarray(values, dtype=float))
    return float(ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)])


def parity(calls, tally):
    """Compare kernel results bit for bit across every built backend."""
    from xorlab import kernels
    names = kernels.available_backends()
    if "c" not in names:
        return
    mods = [kernels.get_backend(n) for n in names]
    for fn, args in calls:
        results = [repr(getattr(m, fn)(*args)) for m in mods]
        tally.record(f"parity {fn}",
                     [] if len(set(results)) == 1
                     else [f"{fn} differs across backends {names}"])


def calibrate(runs=1):
    """Mean seconds of one fixed pure-Python loop.

    The host's speed for interpreter-bound code drifts by tens of percent
    over minutes.  This loop does the kind of work xorlab's hot paths do
    (float arithmetic, list indexing, math.tanh, small tuples), so it slows
    down with them, and time measured next to it can be restated at the
    reference speed: time * CAL_REF_S / loop time.
    """
    w = [0.25 * k - 1.0 for k in range(9)]
    t0 = perf_counter()
    for _ in range(runs):
        acc = 0.0
        recent = []
        for i in range(CAL_LOOPS):
            x = (i % 7) / 7.0
            z = w[i % 9] * x + w[(i + 3) % 9] * (1.0 - x) + w[8]
            a = math.tanh(z)
            acc += a * a - abs(z - 0.5)
            recent.append((x, a))
            if len(recent) > 64:
                recent.clear()
    return (perf_counter() - t0) / runs


class RefClock:
    """Operation time restated at the reference speed, segment by segment:
    every CAL_EVERY_S the calibration loop runs, and the operation time of
    the segment just ended is scaled by CAL_REF_S over the mean of the
    calibrations around it.  Calibration is not operation time."""

    def __init__(self):
        self.cals = [calibrate()]
        self.ref_s = self.segment = 0.0
        self.last = perf_counter()

    def add(self, dt):
        self.segment += dt
        if perf_counter() - self.last >= CAL_EVERY_S:
            self.close()

    def close(self):
        self.cals.append(calibrate())
        self.ref_s += (self.segment * 2.0 * CAL_REF_S
                       / (self.cals[-2] + self.cals[-1]))
        self.segment, self.last = 0.0, perf_counter()


def timed_run(workload, seconds, tally):
    """Closed loop for `seconds` of wall time, one warm-up operation first.
    Oracle checks and calibration sit between operations, untimed."""
    ops = workload.ops()
    attempt(workload, next(ops), tally)
    lat = array.array("d")      # 8 bytes per operation, no float objects
    clock = RefClock()
    start = perf_counter()
    while perf_counter() - start < seconds:
        lat.append(attempt(workload, next(ops), tally))
        clock.add(lat[-1])
    clock.close()
    tail = percentile(lat, workload.tail)
    return {
        "items": len(lat),
        "items_per_s_raw": len(lat) / sum(lat),
        "items_per_s": len(lat) / clock.ref_s,
        "cal_s": sum(clock.cals) / len(clock.cals),
        "item_p50_ms": percentile(lat, 50) * 1e3,
        "tail_pct": workload.tail,
        "tail_ms": tail * 1e3,
        "beyond_tail": sum(1 for v in lat if v > tail),
    }


def probes():
    """Counters read from arguments and results at layer boundaries."""
    def train_run(args, res):
        if res is None:
            return {}
        return {"kernels.train_run.iterations": res[1],
                "kernels.train_run.sample_steps": res[1] * len(args[3])}

    def project_grid(args, res):
        return {"kernels.project_grid.cells": len(args[7]) * len(args[8])}

    def classify(args, res):
        if res is None:
            return {}
        return {"trainer.classify.labels": 1,
                "trainer.classify.fs_fit":
                    int(res.kind in ("Fs", "Unclassified")),
                "trainer.classify.labeled": int(res.kind != "Unclassified")}

    def train(args, res):
        return {"trainer.train.runs": 1,
                "trainer.train.converged": int(bool(res and res.converged))}

    def emit_grid_csv(args, res):
        path = str(args[1])
        size = sum(os.path.getsize(p) for p in (path, path + ".meta.json")
                   if os.path.exists(p))
        return {"surface.emit_grid_csv.bytes": size}

    return {"kernels.train_run": train_run,
            "kernels.project_grid": project_grid,
            "trainer.classify": classify, "trainer.train": train,
            "surface.emit_grid_csv": emit_grid_csv}


def layer_metrics(stats, counts, overhead):
    """The per-layer metrics of BENCHMARK.json from span stats."""
    from tracing import LayerStats

    def st(name):
        return stats.get(name, LayerStats())

    def ratio(num, den):
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    def rate(count, name):
        busy = st(name).busy_s
        return counts.get(count, 0) / busy if busy > 0 else 0.0

    def pct(name, q, scale):
        d = st(name).durations
        return percentile(d, q) * scale if d else 0.0

    return {
        "kernels.train_run.busy_s": st("kernels.train_run").busy_s,
        "kernels.train_run.iterations":
            counts.get("kernels.train_run.iterations", 0),
        "kernels.train_run.sample_steps_per_s":
            rate("kernels.train_run.sample_steps", "kernels.train_run"),
        "kernels.project_grid.busy_s": st("kernels.project_grid").busy_s,
        "kernels.project_grid.cells_per_s":
            rate("kernels.project_grid.cells", "kernels.project_grid"),
        "trainer.classify.busy_s": st("trainer.classify").busy_s,
        "trainer.classify.p50_ms": pct("trainer.classify", 50, 1e3),
        "trainer.classify.p90_ms": pct("trainer.classify", 90, 1e3),
        "trainer.classify.fs_fit_ratio":
            ratio("trainer.classify.fs_fit", "trainer.classify.labels"),
        "trainer.classify.labeled_ratio":
            ratio("trainer.classify.labeled", "trainer.classify.labels"),
        "trainer.envelope_check.busy_s": st("trainer.envelope_check").busy_s,
        "trainer.train.self_s": st("trainer.train").self_s,
        "trainer.converged_ratio":
            ratio("trainer.train.converged", "trainer.train.runs"),
        "copula.xor_f.calls": counts.get("copula.xor_f.calls", 0),
        "copula.solve_s.busy_s": st("copula.solve_s").busy_s,
        "copula.solve_s.p50_us": pct("copula.solve_s", 50, 1e6),
        "network.forward.calls": st("network.forward").calls,
        "network.forward.busy_s": st("network.forward").busy_s,
        "problogic.parse_expr.busy_s": st("problogic.parse_expr").busy_s,
        "problogic.copula_prob.busy_s": st("problogic.copula_prob").busy_s,
        "problogic.check_consistency.busy_s":
            st("problogic.check_consistency").busy_s,
        "surface.project.self_s": st("surface.project").self_s,
        "surface.landscape_stats.busy_s":
            st("surface.landscape_stats").busy_s,
        "surface.emit_grid_csv.busy_s": st("surface.emit_grid_csv").busy_s,
        "surface.emit_grid_csv.bytes":
            counts.get("surface.emit_grid_csv.bytes", 0),
        "cli.main.self_s": st("cli.main").self_s,
        "trace_overhead_ratio": overhead,
    }


def traced_run(workload, seconds, tally, spans_path):
    """The same fixed operations untraced, then traced; per-layer metrics
    from the spans, tracing overhead from the two passes, each restated
    at the reference speed so that host drift between them cancels."""
    import importlib

    from tracing import Tracer, analyse
    ops_iter = workload.ops()
    n = max(1, math.ceil(workload.trace_rate * seconds))
    ops = [next(ops_iter) for _ in range(n)]
    attempt(workload, ops[0], tally)
    plain = RefClock()
    for op in ops:
        plain.add(attempt(workload, op, tally))
    plain.close()

    tracer = Tracer(LAYERS, count_only=frozenset({"copula.xor_f"}),
                    probes=probes())
    tracer.install(importlib.import_module(f"xorlab.{m}") for m in LAYERS)
    traced = RefClock()
    try:
        for i, op in enumerate(ops):
            traced.add(attempt(
                workload, op, tally,
                timer=lambda fn, arg, i=i: tracer.run_op(i, fn, arg)))
    finally:
        tracer.uninstall()
    traced.close()
    stats, problems = analyse(tracer.spans)
    tally.record("span accounting", problems[:MAX_LOGGED])
    tracer.write(spans_path)
    overhead = traced.ref_s / plain.ref_s - 1.0
    table = {name: {"calls": s.calls, "busy_s": s.busy_s, "self_s": s.self_s}
             for name, s in sorted(stats.items())}
    return {"items": n,
            "traced_s": sum(s.duration for s in tracer.spans
                            if s.name == "op"),
            "self_sum_s": sum(s.self_s for s in stats.values()),
            "layers": table, "counts": dict(sorted(tracer.counts.items())),
            "per_layer": layer_metrics(stats, tracer.counts, overhead)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawn-time", type=float, required=True,
                    help="perf_counter() in the parent just before spawn")
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(dir=args.out_dir) as workdir:
        workload.setup(args.seed, workdir)
        setup_raw = perf_counter() - args.spawn_time
        setup_s = setup_raw * CAL_REF_S / calibrate(5)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_s_raw": setup_raw}))
            return 0

        from xorlab import kernels
        tally = Tally(workload.name)
        parity(workload.parity_calls(), tally)
        if args.trace:
            spans = os.path.join(
                args.out_dir, f"spans-{workload.name}-{args.seed}.jsonl")
            result = traced_run(workload, args.seconds, tally, spans)
            result["spans"] = spans
        else:
            result = timed_run(workload, args.seconds, tally)
        result.update({
            "setup_s": setup_s,
            "setup_s_raw": setup_raw,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "env": {"backend": kernels.BACKEND,
                    "available_backends": list(kernels.available_backends()),
                    "python": platform.python_version(),
                    "nproc": len(os.sched_getaffinity(0)), "seed": args.seed,
                    "xorlab": os.path.dirname(kernels.__file__)},
        })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
