"""Time the kernels, the surface scan and writer, and the classifier.

Kernel section: every available backend is driven through the same raw
entry points with identical arguments, results are checked for bitwise
equality (of their repr) first, then each workload is timed.  train_run
is timed on a tanh run of --iters epochs (tol 0) in each mode, per sample
and full batch, and on two sets of per-sample relu runs (lr 0.1): seeds
whose weights are at rest after epoch 1 (every unit dead at the initial
weights), where train_run stops at the first check, and seeds whose
weights move for all --iters epochs.  The backends are timed call by
call in turn, in one process, so that drift in the host's speed hits
them alike.  Have `cc` on PATH to time the compiled backend too;
without a library that loads, only the Python backend is timed.
project_grid is timed once per pair class of the 2-2-1 net, for both
activations the surface workload projects, tanh and relu: two
first-layer weights (L1xL1), a first-layer and an output weight
(L1xL2), and two output weights (L2xL2).  forward_lattice is timed on
the 2-2-1 tanh and relu nets at those weights over classify's 21x21
lattice.
fixed_scorer is timed as one score, by the scorer classify caches
(trainer._fixed_scorer), of 21x21 outputs drawn from --seed against
classify's rows at grid 21: its five fixed candidates and its edge row.
fs_scorer is timed as one F_s fit's golden-section steps: a scorer,
score(s), built from the same outputs, then one score at each of 42
values s = t / (1 - t), t spread over the fit's range, passed unsnapped
as classify passes them.  solve_t is timed
as the bisections of copula.solve_s over the queries of the library
section's solve_s item that reach it (those it does not snap to a
limit or refuse).  grid_stats and grid_csv are timed on the L1xL1 grid
of the 2-2-1 net, as surface.landscape_stats and surface.emit_grid_csv
pass it: the statistics, and the CSV text as bytes.

Library section, on the default backend: surface.landscape_stats and
surface.emit_grid_csv over the 101x101 grids of all 36 weight pairs of
one fixed tanh net and one fixed relu net (the time per grid),
trainer.classify on both nets (their edge deviation settles both as
Unclassified, so neither runs the F_s fit) and on the F_s lattice at
s = 3 (which runs the fit and is labelled Fs), and on both nets
classify's 21x21 lattice, as 441 network.forward calls and as one
network.forward_lattice call, network.gradient over the four
boolean-xor samples, and, over the queries perfbench's logic workload
draws from --seed (perfbench/workloads.py), copula.solve_s over its
2,000 solve_s queries, problogic.parse_expr over its 2,000 copula_prob
texts, and problogic.copula_prob over those texts, parsed once, with
their assignments and s (each the time per call).

First-call section: the time the first network.forward call, then the
first network.gradient call and then the first network.forward_lattice
call over the 21x21 lattice take in a new interpreter, at 2-2-1 and
2-9-1, so that any per-shape set-up those calls do is counted; one
interpreter per repeat and shape.

Surface split section, on the default backend: perfbench's surface
workload at --seed, in process and untraced, one op per weight pair of
both its nets (72 ops a round, perfbench's order), --repeats rounds
after one warm-up round, each op's files removed after it as perfbench
does.  Each op is cut into kernels.project_grid, kernels.grid_stats,
the CSV (from its open to its close: kernels.grid_csv and the writes),
the .meta.json (from its open to its close) and the rest (argument
parsing, loading the model and the data, the JSON reply), each timed by
a perf_counter wrapper; the whole op also gets its minor page faults
(ru_minflt).  The wrappers replace only kernels.project_grid,
kernels.grid_stats and surface's open, so the section runs unchanged
against an older xorlab on PYTHONPATH.

Every item reports the best of --repeats timings and their spread (the
median and the worst).  --section runs only the sections named (all of
them by default).  --json PATH also writes the items, with the Python
version and the backends, as one JSON document.

Run from a checkout with the package installed (the logic queries come
from the checkout's perfbench/, whose oracles need numpy):

    python benchmarks/bench_kernels.py
    python benchmarks/bench_kernels.py --iters 5000 --steps 161
    python benchmarks/bench_kernels.py --json bench.json
    python benchmarks/bench_kernels.py --section split --repeats 12
"""

import argparse
import contextlib
import importlib.util
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import xorlab
from xorlab import (_pycore, copula, kernels, network, problogic, surface,
                    trainer)
from xorlab.copula import (SOLVE_TOL, CopulaParam, frechet_bounds, solve_s,
                           xor_f_lattice)
from xorlab.datasets import builtin
from xorlab.kernels import BACKEND, available_backends, get_backend
from xorlab.linalg import Matrix
from xorlab.network import Network, parse_spec
from xorlab.trainer import classify

# perfbench's workloads, for the logic workload's queries; it imports its
# neighbours netspec and oracles by name
_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(_PERFBENCH))
_spec = importlib.util.spec_from_file_location(
    "workloads", _PERFBENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

# boolean xor, flattened sample-major
XOR_XS = [0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]
XOR_TS = [0.0, 1.0, 1.0, 0.0]

SIZES = [2, 2, 1]
ACTS = [1, 1]           # tanh, tanh
RELU_ACTS = [3, 3]      # relu, relu
# the activations of the surface workload's two nets
NET_ACTS = (("tanh", ACTS), ("relu", RELU_ACTS))
N_WEIGHTS = 9           # 2*(2+1) + 1*(2+1)

# 2-2-1 relu seeds at lr 0.1, per sample: at rest after epoch 1, and
# never at rest within 10000 epochs
RELU_AT_REST = (2, 5, 6)
RELU_MOVING = (10, 14, 16)

# one flat slot pair per class: w1_11 x w1_22, w1_11 x w2_11, w2_11 x w2_12
PAIR_CLASSES = (("L1xL1", 0, 4), ("L1xL2", 0, 6), ("L2xL2", 6, 7))

# the golden-section steps of one F_s fit (40, and the two first probes)
FS_STEPS = 42


def _timings(fns, repeats):
    """Every timing of each fn, calling them in turn and rotating the
    order every repeat."""
    for fn in fns:
        fn()            # warmup; the Python backend generates its code here
    n = len(fns)
    times = [[] for _ in range(n)]
    for r in range(repeats):
        for j in range(n):
            k = (j + r) % n
            t0 = time.perf_counter()
            fns[k]()
            times[k].append(time.perf_counter() - t0)
    return times


def _item(name, backend, seconds, per=1):
    """One report entry: best, median and worst of the timings, in ms
    per unit of work (per grid when one timing covers several)."""
    ms = sorted(t * 1e3 / per for t in seconds)
    return {"name": name, "backend": backend, "repeats": len(ms),
            "best_ms": ms[0], "median_ms": statistics.median(ms),
            "max_ms": ms[-1]}


def _show(item, note=""):
    print(f"{item['name']:38s} {item['backend']:6s} "
          f"{item['best_ms']:9.3f} ms  (median {item['median_ms']:.3f}, "
          f"max {item['max_ms']:.3f}){note}")


def _workloads(args):
    def train(per_sample):
        return lambda mod: mod.train_run(SIZES, ACTS, XOR_XS, XOR_TS, 0.5,
                                         args.iters, 0.0, per_sample,
                                         args.seed, 1.0, 0)

    def relu(seeds):
        return lambda mod: [mod.train_run(SIZES, RELU_ACTS, XOR_XS, XOR_TS,
                                          0.1, args.iters, 1e-3, 1, seed,
                                          1.0, 0)
                            for seed in seeds]

    unit = _pycore._SplitMix(args.seed).next_unit
    base = [unit() for _ in range(N_WEIGHTS)]
    axis = [-5.0 + 10.0 * k / (args.steps - 1) for k in range(args.steps)]

    def grid(acts, ia, ib):
        return lambda mod: mod.project_grid(SIZES, acts, base, XOR_XS,
                                            XOR_TS, ia, ib, axis, axis)

    def lattice(acts):
        return lambda mod: mod.forward_lattice(SIZES, acts, base, fs_axis)

    # F_s steps as classify's fit takes them: one scorer per fit, then one
    # score per s, at FS_STEPS values of t spread over the search's range
    rng = random.Random(args.seed)
    fs_axis = trainer._axis(21)
    fs_outs = [rng.uniform(-0.2, 1.2) for _ in range(21 * 21)]
    fs_ts = [0.0101 + k * (0.99 - 0.0101) / (FS_STEPS - 1)
             for k in range(FS_STEPS)]
    fs_ss = [t / (1.0 - t) for t in fs_ts]

    def fs_steps(mod):
        score = mod.fs_scorer(fs_outs, fs_axis)
        return [score(s) for s in fs_ss]

    def fixed_score(mod):
        return trainer._fixed_scorer(21, mod.fixed_scorer)(fs_outs)

    # the queries that solve_s bisects: p strictly inside the bounds,
    # farther than SOLVE_TOL from each
    solves = []
    for kind, x, y, p, *_ in logic_queries(args.seed):
        if kind == "solve":
            lower, upper = frechet_bounds(x, y)
            if lower + SOLVE_TOL < p < upper - SOLVE_TOL:
                solves.append((x, y, p))

    def solve_steps(mod):
        return [mod.solve_t(x, y, p, copula._BISECT_ITERS)
                for x, y, p in solves]

    # one surface grid, as surface hands it to the kernels: its cells
    # a-major in the array('d') project_grid returns
    cells = _pycore.project_grid(SIZES, ACTS, base, XOR_XS, XOR_TS, 0, 4,
                                 axis, axis)

    def csv_bytes(mod):
        buf = io.BytesIO()
        mod.grid_csv(buf.write, b"wa,wb,err\n", axis, axis, cells)
        return buf.getvalue()

    return [(f"train_run {args.iters} iters per-sample", train(1)),
            (f"train_run {args.iters} iters full-batch", train(0)),
            (f"train_run relu {args.iters} iters at rest",
             relu(RELU_AT_REST)),
            (f"train_run relu {args.iters} iters moving",
             relu(RELU_MOVING))] + [
        (f"project_grid {args.steps}x{args.steps} {cls} {tag}",
         grid(acts, ia, ib))
        for tag, acts in NET_ACTS for cls, ia, ib in PAIR_CLASSES] + [
        (f"forward_lattice 21x21 {tag}", lattice(acts))
        for tag, acts in NET_ACTS] + [
        ("fixed_scorer 21x21, one score", fixed_score),
        (f"fs_scorer 21x21, {FS_STEPS} F_s steps", fs_steps),
        (f"solve_t, {len(solves):,} bisections", solve_steps),
        (f"grid_stats {args.steps}x{args.steps}",
         lambda mod: mod.grid_stats(cells, args.steps)),
        (f"grid_csv {args.steps}x{args.steps}, into BytesIO", csv_bytes)]


# converged boolean-xor nets (trainer seeds 0 at lr 0.5, and 29), both
# Unclassified at their sweep tolerances without the F_s fit
FIXED_NETS = (
    ("tanh", "2-2-1/inp-tanh-tanh", 0.1, (
        [2.2091816960898405, 2.0465084188431755, -3.1746804484211153,
         1.889181839245537, 1.7566159117827984, -0.7172113966783674],
        [-1.851104180728405, 2.057198008671798, -0.560052023912145])),
    ("relu", "2-2-1/inp-relu-relu", 0.05, (
        [0.8326479685190644, 0.8316679604070006, -0.4172813899041792,
         -0.9956955932750386, -0.9932744580910394, 0.9899437267735276],
        [-1.1567006072996902, -1.4773401218669668, 1.4682523387807538])),
)


def logic_queries(seed):
    """The queries of perfbench's logic workload at seed, in its draw
    order: ("solve", x, y, p), ("prob", text, tree, assignment, kind, s,
    CopulaParam) and ("consistency", x, y, kind, s, CopulaParam), 2,000
    of each."""
    logic = workloads.Logic()
    logic.setup(seed, None)
    return logic.queries


def _fixed_net(spec, flat_layers):
    topo = parse_spec(spec)
    return Network(topo, tuple(
        Matrix(rows, cols, tuple(flat))
        for (rows, cols), flat in zip(topo.weight_shapes(), flat_layers)))


def _kernel_section(args, items):
    names = [n for n in ("python", "c") if n in available_backends()]
    backends = [get_backend(n) for n in names]

    print(f"kernels: {', '.join(names)}")
    for label, work in _workloads(args):
        results = [repr(work(mod)) for mod in backends]
        if any(r != results[0] for r in results[1:]):
            print(f"{label}: BACKEND MISMATCH")
            return 1
        times = _timings([lambda m=mod: work(m) for mod in backends],
                         args.repeats)
        for name, seconds in zip(names, times):
            note = ""
            if name == "c" and len(times) == 2:
                note = f"   speedup {min(times[0]) / min(seconds):.1f}x"
            items.append(_item(label, name, seconds))
            _show(items[-1], note)
    return 0


def _library_section(args, items):
    print(f"library: backend {BACKEND}")
    data = builtin("boolean_xor")
    nets = [(tag, _fixed_net(spec, layers), tol)
            for tag, spec, tol, layers in FIXED_NETS]
    grids = [surface.project(net, data, a, b, steps=args.steps)
             for _, net, _ in nets
             for a, b in surface.enumerate_pairs(net.topology)]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "grid.csv"
        work = (
            ("landscape_stats",
             lambda: [surface.landscape_stats(g) for g in grids]),
            ("emit_grid_csv",
             lambda: [surface.emit_grid_csv(g, out) for g in grids]))
        for label, fn in work:
            seconds, = _timings([fn], args.repeats)
            items.append(_item(
                f"{label} {args.steps}x{args.steps}, per grid", BACKEND,
                seconds, per=len(grids)))
            _show(items[-1], f"   over {len(grids)} grids")
    axis = [i / 20 for i in range(21)]
    lattice = [(x, y) for x in axis for y in axis]
    # F_s at s = 3 as a table, so that classify times its fit, not xor_f
    fs3 = dict(zip(lattice, xor_f_lattice(CopulaParam.finite(3.0), axis)))
    work = [(f"classify {tag} net, tol {tol:g}", net, tol)
            for tag, net, tol in nets]
    work.append(("classify F_s(s=3) lattice, tol 0.05",
                 lambda x, y: fs3[x, y], 0.05))
    for name, fn, tol in work:
        label = classify(fn, tol=tol)
        seconds, = _timings([lambda: classify(fn, tol=tol)], args.repeats)
        items.append(_item(name, BACKEND, seconds))
        _show(items[-1], f"   {label.render()} "
                         f"max_deviation={label.max_deviation!r}")
    samples = data.single()
    for tag, net, _ in nets:
        work = [("network.forward 21x21 lattice",
                 lambda: [network.forward(net, p) for p in lattice]),
                ("network.forward_lattice 21x21 lattice",
                 lambda: network.forward_lattice(net, axis)),
                ("network.gradient 4 xor samples",
                 lambda: [network.gradient(net, ins, t)
                          for ins, t in samples])]
        for label, fn in work:
            seconds, = _timings([fn], args.repeats)
            items.append(_item(f"{label}, {tag} net", BACKEND, seconds))
            _show(items[-1])
    drawn = logic_queries(args.seed)
    queries = [q[1:4] for q in drawn if q[0] == "solve"]
    seconds, = _timings(
        [lambda: [solve_s(x, y, p) for x, y, p in queries]],
        args.repeats)
    items.append(_item(f"solve_s, {len(queries):,} drawn round trips, "
                       f"per call", BACKEND, seconds, per=len(queries)))
    _show(items[-1])
    probs = [q for q in drawn if q[0] == "prob"]
    texts = [q[1] for q in probs]
    seconds, = _timings(
        [lambda: [problogic.parse_expr(text) for text in texts]],
        args.repeats)
    items.append(_item(f"parse_expr, {len(texts):,} drawn texts, per call",
                       BACKEND, seconds, per=len(texts)))
    _show(items[-1])
    queries = [(problogic.parse_expr(q[1]), q[3], q[6]) for q in probs]
    seconds, = _timings(
        [lambda: [problogic.copula_prob(expr, assignment, s)
                  for expr, assignment, s in queries]],
        args.repeats)
    items.append(_item(f"copula_prob, {len(queries):,} drawn queries, "
                       f"per call", BACKEND, seconds, per=len(queries)))
    _show(items[-1])


# times the first forward, gradient and forward_lattice calls of a new
# interpreter
FIRST_CALL = """
import sys, time
from xorlab import network
from xorlab.linalg import Matrix
topo = network.parse_spec(sys.argv[1])
net = network.Network(topo, tuple(Matrix(rows, cols, (0.5,) * (rows * cols))
                                  for rows, cols in topo.weight_shapes()))
t0 = time.perf_counter()
network.forward(net, (0.5, 0.5))
t1 = time.perf_counter()
network.gradient(net, (0.5, 0.5), 1.0)
t2 = time.perf_counter()
network.forward_lattice(net, [i / 20 for i in range(21)])
t3 = time.perf_counter()
print(t1 - t0, t2 - t1, t3 - t2)
"""


def first_calls(spec, repeats):
    """Seconds of the first forward, gradient and forward_lattice call,
    one new interpreter per repeat, importing this xorlab."""
    home = os.path.dirname(os.path.dirname(xorlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [home] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    times = ([], [], [])
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", FIRST_CALL, spec],
                             env=env, capture_output=True, text=True,
                             check=True).stdout.split()
        for seconds, value in zip(times, out):
            seconds.append(float(value))
    return times


def _first_call_section(args, items):
    print(f"first calls: backend {BACKEND}")
    kinds = ("forward", "gradient", "forward_lattice 21x21")
    for spec in ("2-2-1/inp-tanh-tanh", "2-9-1/inp-tanh-tanh"):
        for kind, seconds in zip(kinds, first_calls(spec, args.repeats)):
            items.append(_item(f"first network.{kind} call, {spec}",
                               BACKEND, seconds))
            _show(items[-1])


# the parts of a surface op, in the order they run
SPLIT_PARTS = ("kernels.project_grid", "kernels.grid_stats",
               "CSV, open to close", ".meta.json, open to close", "the rest")


def _surface_split_section(args, items):
    print(f"surface split: backend {BACKEND}")
    parts = dict.fromkeys(SPLIT_PARTS, 0.0)

    def timed(part, fn):
        def wrapper(*a, **kw):
            t0 = time.perf_counter()
            try:
                return fn(*a, **kw)
            finally:
                parts[part] += time.perf_counter() - t0
        return wrapper

    @contextlib.contextmanager
    def timed_open(path, *a, **kw):
        part = SPLIT_PARTS[3 if str(path).endswith(".meta.json") else 2]
        t0 = time.perf_counter()
        try:
            with open(path, *a, **kw) as fh:
                yield fh
        finally:
            parts[part] += time.perf_counter() - t0

    saved = kernels.project_grid, kernels.grid_stats
    kernels.project_grid = timed(SPLIT_PARTS[0], kernels.project_grid)
    kernels.grid_stats = timed(SPLIT_PARTS[1], kernels.grid_stats)
    surface.open = timed_open   # shadows the builtin in surface alone
    rounds = {part: [] for part in ("whole op",) + SPLIT_PARTS}
    faults = 0
    try:
        with tempfile.TemporaryDirectory() as tmp:
            work = workloads.Surface()
            work.setup(args.seed, tmp)
            for r in range(args.repeats + 1):
                for part in parts:
                    parts[part] = 0.0
                whole = 0.0
                for op in work.pairs:
                    out = work.request(op)["out"]
                    before = resource.getrusage(resource.RUSAGE_SELF)
                    t0 = time.perf_counter()
                    code, _ = work.run(op)
                    whole += time.perf_counter() - t0
                    after = resource.getrusage(resource.RUSAGE_SELF)
                    if code != 0:
                        raise RuntimeError(f"surface op {op} exited {code}")
                    os.remove(out)
                    os.remove(out + ".meta.json")
                    if r:
                        faults += after.ru_minflt - before.ru_minflt
                if r:       # round 0 warms up
                    parts["the rest"] = whole - sum(parts.values())
                    rounds["whole op"].append(whole)
                    for part, seconds in parts.items():
                        rounds[part].append(seconds)
    finally:
        kernels.project_grid, kernels.grid_stats = saved
        del surface.open
    ops = args.repeats * len(work.pairs)
    for part, seconds in rounds.items():
        items.append(_item(f"surface op: {part}, per op", BACKEND, seconds,
                           per=len(work.pairs)))
        note = ""
        if part == "whole op":
            items[-1]["minor_faults_per_op"] = faults / ops
            note = f"   {faults / ops:.1f} minor faults per op"
        _show(items[-1], note)


SECTIONS = {"kernels": _kernel_section, "library": _library_section,
            "first-calls": _first_call_section,
            "split": _surface_split_section}


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="compare kernel backends on training and projection, "
                    "and time the surface scan, the grid writer and the "
                    "classifier")
    ap.add_argument("--iters", type=int, default=2000,
                    help="training iterations per run (default 2000)")
    ap.add_argument("--steps", type=int, default=101,
                    help="projection grid steps per axis (default 101)")
    ap.add_argument("--repeats", type=int, default=5,
                    help="timing repeats, best is reported (default 5)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--section", action="append", choices=list(SECTIONS),
                    help="run only this section; repeat to run several "
                         "(default: all, in the order listed)")
    ap.add_argument("--json", metavar="PATH", default=None,
                    help="also write the results as JSON to PATH")
    args = ap.parse_args(argv)

    items = []
    for name, section in SECTIONS.items():
        if (args.section is None or name in args.section) \
                and section(args, items):
            return 1
    if args.json:
        doc = {"python": platform.python_version(),
               "implementation": platform.python_implementation(),
               "machine": platform.machine(),
               "default_backend": BACKEND,
               "available_backends": list(available_backends()),
               "iters": args.iters, "steps": args.steps,
               "repeats": args.repeats, "seed": args.seed,
               "sections": args.section or list(SECTIONS), "items": items}
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
