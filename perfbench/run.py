"""xorlab benchmark: run one workload, check its outputs, print metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-tanh --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1

--seconds defaults to run_seconds of BENCHMARK.json.  --trace 0 prints
the end-to-end metrics of BENCHMARK.json; --trace 1 runs a fixed set of
operations untraced and traced and prints the per-layer metrics.
`--workload all` runs every workload both ways, each in its own process,
prints every metric and writes perfbench/out/results.json.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.

Every workload runs in fresh worker processes (perfbench/worker.py) with
one thread; set-up time is the median over several processes, each
measured from spawn to the first operation being ready.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from worker import CAL_REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 5              # set-up samples per untraced run (median reported)
DEADLINE_S = 170.0      # a run must exit within 180 s
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def contract():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def spawn(workload, seed, seconds, trace, deadline, setup_only=False):
    """Run worker.py in a fresh process; returns its JSON document."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out-dir", str(OUT)]
    if setup_only:
        cmd.append("--setup-only")
    remaining = deadline - perf_counter()
    if remaining <= 0:
        raise BenchError("out of time before the worker started")
    t0 = perf_counter()
    try:
        proc = subprocess.run(cmd + ["--spawn-time", repr(t0)], env=env,
                              cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace, deadline):
    """One workload, untraced or traced; returns (report, metrics)."""
    if trace:
        doc = spawn(workload, seed, seconds, 1, deadline)
        return doc, doc["per_layer"]
    setups = [spawn(workload, seed, seconds, 0, deadline, setup_only=True)
              for _ in range(SETUPS - 1)]
    doc = spawn(workload, seed, seconds, 0, deadline)
    setups.append(doc)
    doc["setup_s_raw"] = statistics.median(d["setup_s_raw"] for d in setups)
    metrics = {"setup_s": statistics.median(d["setup_s"] for d in setups),
               "items_per_s": doc["items_per_s"],
               "peak_rss_mb": doc["peak_rss_mb"]}
    return doc, metrics


def named_metrics(workload, doc, trace):
    """Per-workload names for the as-measured figures of the
    human-readable report: restarts/grids/queries per second, latency
    percentiles, fail ratio."""
    if trace:
        return []
    from workloads import WORKLOADS
    w = WORKLOADS[workload]
    noun = w.unit[:-1]
    if w.unit == "queries":
        noun, scale, unit = "query", 1e3, "us"
    else:
        scale, unit = 1.0, "ms"
    tail = (f"{noun}_p{doc['tail_pct']}_{unit}",
            doc["tail_ms"] * scale, unit)
    return [
        (f"{w.unit}_per_s", doc["items_per_s_raw"], f"{w.unit}/s"),
        (f"{noun}_p50_{unit}", doc["item_p50_ms"] * scale, unit),
        tail,
        ("fail_ratio", doc["failed"] / doc["attempted"], "failed/attempted"),
    ]


def report(workload, seed, seconds, trace, doc, metrics, units):
    env = doc["env"]
    print(f"== {workload}  seed={seed} seconds={seconds} trace={trace}")
    print(f"   backend={env['backend']} available="
          f"{','.join(env['available_backends'])} python={env['python']} "
          f"nproc={env['nproc']}")
    for name, value, unit in named_metrics(workload, doc, trace):
        print(f"   {name:40s} {value:16.6g} {unit}")
    if not trace:
        print(f"   {'(samples)':40s} {doc['items']:16d} operations, "
              f"{doc['beyond_tail']} beyond p{doc['tail_pct']}")
        print(f"   {'setup_s (as measured)':40s} {doc['setup_s_raw']:16.6g} s")
        print(f"   {'calibration loop':40s} {doc['cal_s']:16.6g} s; "
              f"at reference speed ({CAL_REF_S} s):")
    for name, value in metrics.items():
        print(f"   {name:40s} {value:16.6g} {units[name]}")
    if trace:
        print(f"   {doc['items']} operations traced in "
              f"{doc['traced_s']:.4f} s; self times sum to "
              f"{doc['self_sum_s']:.4f} s")
        print(f"   {'span':36s} {'calls':>9s} {'busy_s':>10s} "
              f"{'self_s':>10s} {'self %':>7s}")
        for name, st in doc["layers"].items():
            share = 100.0 * st["self_s"] / doc["traced_s"]
            print(f"   {name:36s} {st['calls']:9d} {st['busy_s']:10.4f} "
                  f"{st['self_s']:10.4f} {share:6.1f}%")
    print(f"   attempted={doc['attempted']} failed={doc['failed']}")


def result_line(correct, attempted, failed, metrics, units):
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}})


def main(argv=None) -> int:
    spec = contract()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "xorlab" / "__init__.py").is_file():
        print(f"error: no xorlab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    start = perf_counter()

    if args.workload != "all":
        try:
            doc, metrics = run_workload(args.workload, args.seed,
                                        args.seconds, args.trace,
                                        start + DEADLINE_S)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        report(args.workload, args.seed, args.seconds, args.trace, doc,
               metrics, units)
        print(result_line(doc["failed"] == 0, doc["attempted"],
                          doc["failed"], metrics, units))
        return 0

    results, combined = {}, {}
    attempted = failed = 0
    for workload in names:
        for trace in (0, 1):
            try:
                doc, metrics = run_workload(workload, args.seed,
                                            args.seconds, trace,
                                            perf_counter() + DEADLINE_S)
            except BenchError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            report(workload, args.seed, args.seconds, trace, doc, metrics,
                   units)
            results[f"{workload}/trace{trace}"] = {"metrics": metrics,
                                                   **doc}
            attempted += doc["attempted"]
            failed += doc["failed"]
            for name, value in metrics.items():
                combined[f"{workload}.{name}"] = value
                units[f"{workload}.{name}"] = units[name]
    bad = [n for n in combined if not NAME.match(n)]
    if bad:
        print(f"error: metric names outside [A-Za-z0-9_.-]: {bad}",
              file=sys.stderr)
        return 1
    with open(OUT / "results.json", "w") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
    print(f"wrote {OUT / 'results.json'}")
    print(result_line(failed == 0, attempted, failed, combined, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
