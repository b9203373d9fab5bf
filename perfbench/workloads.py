"""The four workloads: what each generates from its seed, the operation it
times, and how it checks the operation's output.

A workload object is created per process.  setup() is the part a user
pays before the first operation (imports, datasets, base networks,
generated queries); ops() yields operation inputs forever; run() is the
timed call into the program; check() compares its output with an oracle
and returns a list of problems.  Program functions are always reached
through their module (trainer.sweep, cli.main, ...) so that the traced
run's wrappers see the call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
from dataclasses import replace

import netspec


class Sweep:
    """Restart sweeps of one 2-2-1 net on boolean xor.

    Each operation is one trainer.sweep call of one restart, at seeds
    1000 * seed, 1000 * seed + 1, ...  sweep(seed=k, restarts=n) is the
    same work as n such calls at k, k+1, ...; one restart per call lets
    the benchmark time each restart from outside.
    """

    unit = "restarts"
    tail = 90

    def __init__(self, name, spec, lr=0.1, classify_tol=0.05,
                 trace_rate=1.0):
        self.name = name
        self.spec = spec
        self.lr = lr
        self.classify_tol = classify_tol
        self.trace_rate = trace_rate    # traced restarts per --seconds

    def setup(self, seed, workdir):
        from xorlab import datasets, trainer
        self.trainer = trainer
        self.data = datasets.builtin("boolean_xor")
        self.cfg = trainer.TrainConfig(seed=0, learning_rate=self.lr)
        self.base = 1000 * seed

    def ops(self):
        return itertools.count(self.base)

    def run(self, seed):
        return self.trainer.sweep(self.spec, self.data,
                                  replace(self.cfg, seed=seed), 1,
                                  classify_tol=self.classify_tol)

    def check(self, seed, entries):
        import oracles
        if len(entries) != 1:
            return [f"{len(entries)} entries for one restart"]
        return oracles.check_sweep_entry(
            entries[0], self.spec, seed, self.cfg.tol, self.cfg.max_iters,
            self.classify_tol)

    def parity_calls(self):
        """train_run and sse_dataset on the first restart's inputs."""
        from xorlab import network
        topo = network.parse_spec(self.spec)
        pairs = self.data.single()
        sizes = list(topo.layer_sizes)
        acts = [a.code for a in topo.activations]
        xs = [v for ins, _ in pairs for v in ins]
        ts = [t for _, t in pairs]
        rng = random.Random(self.base)
        init = [rng.uniform(-1.0, 1.0) for _ in range(9)]
        return [
            ("train_run", (sizes, acts, xs, ts, self.lr, self.cfg.max_iters,
                           self.cfg.tol, 1, self.base, 1.0, 1)),
            ("sse_dataset", (sizes, acts, init, xs, ts)),
        ]


class Surface:
    """`xorlab surface` in-process for every weight pair of two 2-2-1 nets
    trained from the seed (tanh-tanh at lr 0.5, relu-relu at lr 0.1).

    The base nets train for exactly BASE_ITERS iterations (no early stop),
    so set-up cost does not depend on whether a seed happens to converge.
    """

    unit = "grids"
    tail = 90
    name = "surface"
    trace_rate = 2.0
    nets = (("tanh", "2-2-1/inp-tanh-tanh", 0.5),
            ("relu", "2-2-1/inp-relu-relu", 0.1))
    steps = 101
    span = (-5.0, 5.0)
    BASE_ITERS = 2000

    def setup(self, seed, workdir):
        from xorlab import cli, datasets, network, trainer
        self.cli = cli
        self.workdir = workdir
        data = datasets.builtin("boolean_xor")
        self.models = {}
        for tag, spec, lr in self.nets:
            cfg = trainer.TrainConfig(seed=1000 * seed, learning_rate=lr,
                                      max_iters=self.BASE_ITERS, tol=1e-300)
            net = trainer.train(spec, data, cfg).final_net
            path = os.path.join(workdir, f"{tag}.json")
            network.save_model(net, path, seed=cfg.seed)
            self.models[tag] = (spec, path)
        self.pairs = [(tag, f"{a},{b}")
                      for tag, (spec, _) in self.models.items()
                      for a, b in netspec.weight_pairs(
                          netspec.parse_spec(spec)[0])]
        random.Random(seed).shuffle(self.pairs)

    def ops(self):
        return itertools.cycle(self.pairs)

    def request(self, op):
        tag, pair = op
        spec, model = self.models[tag]
        return {"pair": pair.split(","), "range": list(self.span),
                "steps": self.steps, "data": "boolean_xor", "model": model,
                "out": os.path.join(self.workdir,
                                    f"{tag}-{pair.replace(',', '-')}.csv")}

    def run(self, op):
        req = self.request(op)
        argv = ["surface", "--model", req["model"], "--data", req["data"],
                "--pair", op[1], "--range=%r,%r" % self.span,
                "--steps", str(self.steps), "--out", req["out"],
                "--format", "json"]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:      # argparse usage errors
                code = exc.code
        return code, buf.getvalue()

    def check(self, op, out):
        import oracles
        req = self.request(op)
        spec, model = self.models[op[0]]
        with open(model) as fh:
            doc = json.load(fh)
        base_w = [v for m in doc["weights"] for v in m["data"]]
        try:
            return oracles.check_surface(req, out[0], out[1], req["out"],
                                         spec, base_w)
        finally:
            for path in (req["out"], req["out"] + ".meta.json"):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)

    def parity_calls(self):
        """project_grid, sse_dataset and train_run on the tanh base net."""
        import oracles
        spec, model = self.models["tanh"]
        with open(model) as fh:
            doc = json.load(fh)
        w = [v for m in doc["weights"] for v in m["data"]]
        sizes, acts = netspec.parse_spec(spec)
        codes = [{"id": 0, "tanh": 1, "sigmoid": 2, "relu": 3}[a]
                 for a in acts]
        xs = [float(v) for v in oracles.XOR_X.ravel()]
        ts = [float(v) for v in oracles.XOR_T]
        axis = [self.span[0] + i * (self.span[1] - self.span[0])
                / (self.steps - 1) for i in range(self.steps)]
        return [
            ("project_grid", (sizes, codes, w, xs, ts, 0, 8, axis, axis)),
            ("sse_dataset", (sizes, codes, w, xs, ts)),
            ("train_run", (sizes, codes, xs, ts, 0.5, self.BASE_ITERS,
                           1e-300, 1, doc["seed"], 1.0, 0)),
        ]


_S_KINDS = ("zero", "one", "inf", "finite")


def _draw_param(rng):
    """(kind, s) with kind uniform over the four variants; finite s is
    log-uniform on [e^-6, e^6] outside the One window."""
    kind = rng.choice(_S_KINDS)
    if kind != "finite":
        return kind, None
    while True:
        s = math.exp(rng.uniform(-6.0, 6.0))
        if abs(s - 1.0) > 1e-3:
            return kind, s


def _draw_tree(rng, names):
    """Random expression over distinct variables, each used once."""
    if len(names) == 1:
        node = ("var", names[0])
    else:
        cut = rng.randint(1, len(names) - 1)
        node = (rng.choice(("and", "or", "xor")),
                _draw_tree(rng, names[:cut]), _draw_tree(rng, names[cut:]))
    if rng.random() < 0.3:
        node = ("not", node)
    return node


def render(tree) -> str:
    """Fully parenthesized text, so precedence rules never matter."""
    op = tree[0]
    if op == "var":
        return tree[1]
    if op == "not":
        return f"not ({render(tree[1])})"
    return f"({render(tree[1])} {op} {render(tree[2])})"


class Logic:
    """Scalar copula and logic queries, in rotation: solve_s, parse_expr
    plus copula_prob, check_consistency on frank_and/frank_or values."""

    unit = "queries"
    tail = 99
    name = "logic"
    trace_rate = 3000.0
    n_queries = 6000

    def setup(self, seed, workdir):
        from xorlab import copula, problogic
        self.copula = copula
        self.problogic = problogic
        rng = random.Random(seed)
        self.queries = [self._draw(k % 3, rng) for k in range(self.n_queries)]

    def _param(self, kind, s):
        return (self.copula.CopulaParam.finite(s) if kind == "finite"
                else self.copula.CopulaParam(kind))

    def _draw(self, which, rng):
        x, y = rng.uniform(0.001, 0.999), rng.uniform(0.001, 0.999)
        if which == 0:
            # round trip: p = A_s(x, y) from the oracle's closed form, s
            # log-uniform over the finite range the program evaluates in
            # closed form, [1e-8, 1e8]; the Frechet bounds themselves and
            # the independence value x*y are mixed in
            r = rng.random()
            if r < 0.05:
                p = min(x, y)
            elif r < 0.10:
                p = max(x + y - 1.0, 0.0)
            elif r < 0.15:
                p = x * y + rng.uniform(-1e-8, 1e-8)
            else:
                import oracles
                s = math.exp(rng.uniform(-1.0, 1.0) * math.log(1e8))
                p = float(oracles.frank_and("finite", s, x, y))
            return ("solve", x, y, p)
        kind, s = _draw_param(rng)
        if which == 1:
            names = [f"x{i}" for i in range(1, rng.randint(2, 4) + 1)]
            rng.shuffle(names)
            tree = _draw_tree(rng, names)
            probs = {n: rng.random() for n in names}
            return ("prob", render(tree), tree, probs, kind, s,
                    self._param(kind, s))
        return ("consistency", x, y, kind, s, self._param(kind, s))

    def ops(self):
        return itertools.cycle(self.queries)

    def run(self, q):
        if q[0] == "solve":
            return self.copula.solve_s(q[1], q[2], q[3])
        if q[0] == "prob":
            expr = self.problogic.parse_expr(q[1])
            return self.problogic.copula_prob(expr, q[3], q[6])
        a = self.copula.frank_and(q[5], q[1], q[2])
        r = self.copula.frank_or(q[5], q[1], q[2])
        return a, r, self.problogic.check_consistency(q[1], q[2], a, r)

    def check(self, q, out):
        import oracles
        if q[0] == "solve":
            return oracles.check_solve(q[1], q[2], q[3], out.kind, out.s)
        if q[0] == "prob":
            return oracles.check_prob(q[2], q[3], q[4], q[5], float(out))
        a, r, verdict = out
        return oracles.check_consistency(
            q[1], q[2], q[3], q[4], float(a), float(r),
            {c.name: c.ok for c in verdict.checks}, verdict.consistent)

    def parity_calls(self):
        return []           # scalar queries never reach the kernels


WORKLOADS = {w.name: w for w in (
    # why each workload exists: README.md and BENCHMARK.json
    Sweep("sweep-tanh", "2-2-1/inp-tanh-tanh", lr=0.5, classify_tol=0.1,
          trace_rate=1.0),
    Sweep("sweep-relu", "2-2-1/inp-relu-relu", trace_rate=0.5),
    Surface(),
    Logic(),
)}
