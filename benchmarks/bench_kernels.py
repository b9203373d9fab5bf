"""Time the kernels and the classifier.

Kernel section: both backends are driven through the same raw entry
points with identical arguments, results are checked for bitwise
equality first, then each workload is timed (best of --repeats).  It is
skipped when the compiled backend is not built.

Library section: trainer.classify on one fixed tanh net and one fixed
relu net (both fall through to the F_s fit), on the default backend.

Run from a checkout with the package installed:

    python benchmarks/bench_kernels.py
    python benchmarks/bench_kernels.py --iters 5000 --steps 161
"""

import argparse
import time

from xorlab.kernels import BACKEND, available_backends, get_backend
from xorlab.linalg import Matrix
from xorlab.network import Network, parse_spec
from xorlab.trainer import classify

# boolean xor, flattened sample-major
XOR_XS = [0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]
XOR_TS = [0.0, 1.0, 1.0, 0.0]

SIZES = [2, 2, 1]
ACTS = [1, 1]           # tanh, tanh
N_WEIGHTS = 9           # 2*(2+1) + 1*(2+1)


def _best_of(fn, repeats):
    fn()                # warmup
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def _workloads(args):
    def train(mod):
        return mod.train_run(SIZES, ACTS, XOR_XS, XOR_TS, 0.5,
                             args.iters, 0.0, 1, args.seed, 1.0, 0)

    base = get_backend("python").rng_uniform(args.seed, N_WEIGHTS)
    axis = [-5.0 + 10.0 * k / (args.steps - 1) for k in range(args.steps)]

    def grid(mod):
        return mod.project_grid(SIZES, ACTS, base, XOR_XS, XOR_TS,
                                0, 4, axis, axis)

    return [
        (f"train_run {args.iters} iters per-sample", train),
        (f"project_grid {args.steps}x{args.steps}", grid),
    ]


# converged boolean-xor nets (trainer seeds 0 at lr 0.5, and 29), both
# Unclassified after the full F_s fit at their sweep tolerances
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


def _fixed_net(spec, flat_layers):
    topo = parse_spec(spec)
    return Network(topo, tuple(
        Matrix(rows, cols, tuple(flat))
        for (rows, cols), flat in zip(topo.weight_shapes(), flat_layers)))


def _kernel_section(args):
    names = available_backends()
    if "c" not in names:
        print("kernels: compiled backend not available; skipped")
        return 0
    backends = [(n, get_backend(n)) for n in ("python", "c")]

    print(f"kernels: {', '.join(n for n, _ in backends)}")
    for label, work in _workloads(args):
        results = [work(mod) for _, mod in backends]
        if results[0] != results[1]:
            print(f"{label}: BACKEND MISMATCH")
            return 1
        times = [_best_of(lambda m=mod: work(m), args.repeats)
                 for _, mod in backends]
        speedup = times[0] / times[1] if times[1] > 0 else float("inf")
        print(f"{label:38s} python {times[0] * 1e3:9.2f} ms   "
              f"c {times[1] * 1e3:9.2f} ms   speedup {speedup:6.1f}x")
    return 0


def _library_section(args):
    print(f"library: backend {BACKEND}")
    for tag, spec, tol, layers in FIXED_NETS:
        net = _fixed_net(spec, layers)
        label = classify(net, tol=tol)
        dt = _best_of(lambda: classify(net, tol=tol), args.repeats)
        print(f"{'classify ' + tag + ' net, tol ' + format(tol, 'g'):38s} "
              f"{dt * 1e3:9.2f} ms   {label.render()} "
              f"max_deviation={label.max_deviation!r}")


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="compare kernel backends on training and projection, "
                    "and time the classifier")
    ap.add_argument("--iters", type=int, default=2000,
                    help="training iterations per run (default 2000)")
    ap.add_argument("--steps", type=int, default=101,
                    help="projection grid steps per axis (default 101)")
    ap.add_argument("--repeats", type=int, default=5,
                    help="timing repeats, best is reported (default 5)")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    if _kernel_section(args):
        return 1
    _library_section(args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
