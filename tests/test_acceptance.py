"""Acceptance criteria, one test per criterion, run on the default backend.

Each test name carries its criterion number; conftest prints a labeled
PASS/FAIL line per criterion at the end of the run.  Stated tolerances are
asserted as written.  Criterion 10's step-surface clause is asserted as
written and is a known open failure: smooth tanh networks trained to
SSE < 1e-3 keep soft shoulders wider than one lattice step, so they do not
sit within 0.1 of the discontinuous step surface outside the excluded
corner cells (see tests and the sweep CSVs for the measured deviations).
"""

import json
import math
import random
import time
from itertools import product

import pytest

from xorlab.cli import main
from xorlab.copula import CopulaParam, frank_and, frank_or, solve_s, xor_f
from xorlab.datasets import builtin, sse_of
from xorlab.linalg import Matrix, least_squares
from xorlab.network import (ACTIVATIONS, Network, Topology, collapse_linear,
                            count_weights, forward, gradient, parse_spec)
from xorlab.problogic import (check_consistency, copula_prob,
                              empirical_frequencies, parse_expr)
from xorlab.surface import enumerate_pairs, landscape_stats, parse_coord, \
    project
from xorlab.trainer import TrainConfig, classify, sweep, train

XOR = builtin("boolean_xor")
CORNERS = ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0))

# the worked all-id example network, also the base point for criterion 12
LIN_W1 = [[0.1, -0.1, 0.2], [-0.2, 0.3, 0.1]]
LIN_W2 = [[-0.4, -0.2, 0.3]]


def _net(spec, *layers):
    return Network(parse_spec(spec),
                   tuple(Matrix.from_rows(ws) for ws in layers))


def _run_json(capsys, argv):
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == "1"
    return doc


def test_criterion_01_linear_regression(capsys):
    """Plain fit lands on (0, 0, 1/2) with SSE 1; the product feature
    makes the fit exact."""
    start = time.perf_counter()
    doc = _run_json(capsys, ["regress", "--data", "boolean_xor",
                             "--format", "json"])
    assert doc["weights"] == pytest.approx([0.0, 0.0, 0.5], abs=1e-9)
    assert doc["sse"] == pytest.approx(1.0, abs=1e-9)
    doc = _run_json(capsys, ["regress", "--data", "boolean_xor",
                             "--product-feature", "--format", "json"])
    assert doc["weights"] == pytest.approx([1.0, 1.0, -2.0, 0.0], abs=1e-9)
    assert doc["sse"] == pytest.approx(0.0, abs=1e-9)
    assert time.perf_counter() - start < 1.0


def test_criterion_02_discriminants():
    start = time.perf_counter()
    base = Matrix.from_rows([[0, 0, 1, 1], [0, 1, 0, 1], [1, 1, 1, 1]])
    for name, intercept in (("boolean_and", -0.25), ("boolean_or", 0.25)):
        targets = Matrix.from_rows(
            [[t for _, (t,) in builtin(name).rows]])
        w = least_squares(base, targets)
        assert w.at(0, 0) == pytest.approx(0.5, abs=1e-9)
        assert w.at(0, 1) == pytest.approx(0.5, abs=1e-9)
        assert w.at(0, 2) == pytest.approx(intercept, abs=1e-9)
        # 0.5-threshold rounding reproduces the outAnd/outOr truth columns
        for (x1, x2), (t,) in builtin(name).rows:
            plane = w.at(0, 0) * x1 + w.at(0, 1) * x2 + w.at(0, 2)
            assert float(plane >= 0.5) == t
    assert time.perf_counter() - start < 1.0


def test_criterion_03_goodness_of_fit():
    want = {"Fa": 2.0, "Fb": 2.0, "Fc": 1.0, "Fd": 10.0, "Fe": 0.0}
    for name, sse_val in want.items():
        assert sse_of(name, XOR) == sse_val


def test_criterion_04_copula_points():
    assert float(frank_and(CopulaParam.one(), 0.5, 0.5)) == 0.25
    assert float(frank_and(CopulaParam.infinity(), 0.4, 0.7)) \
        == pytest.approx(0.1, abs=1e-12)
    param = solve_s(0.5, 0.5, 0.3)
    assert param.s == pytest.approx(0.193, abs=1e-3)
    assert float(xor_f(param, 0.5, 0.5)) == pytest.approx(0.4, abs=1e-6)


def test_criterion_05_copula_laws():
    start = time.perf_counter()
    params = [CopulaParam.zero(), CopulaParam.finite(0.01),
              CopulaParam.finite(0.5), CopulaParam.finite(0.75),
              CopulaParam.one(), CopulaParam.finite(1.25),
              CopulaParam.finite(2.0), CopulaParam.finite(20.0),
              CopulaParam.infinity()]
    axis = [k / 20.0 for k in range(21)]
    for p in params:
        for x in axis:
            # boundary conditions on A
            assert float(frank_and(p, x, 0.0)) <= 1e-12
            assert float(frank_and(p, 0.0, x)) <= 1e-12
            assert abs(float(frank_and(p, x, 1.0)) - x) <= 1e-12
            assert abs(float(frank_and(p, 1.0, x)) - x) <= 1e-12
            # edge laws on F
            assert abs(float(xor_f(p, x, 0.0)) - x) <= 1e-12
            assert abs(float(xor_f(p, x, 1.0)) - (1.0 - x)) <= 1e-12
            for y in axis:
                a = float(frank_and(p, x, y))
                r = float(frank_or(p, x, y))
                f = float(xor_f(p, x, y))
                assert abs((a + r) - (x + y)) <= 1e-12
                f0 = abs(x - y)
                finf = min(x + y, 1.0) - max(x + y - 1.0, 0.0)
                assert f0 - 1e-10 <= f <= finf + 1e-10
        for x, y in CORNERS:
            assert abs(float(xor_f(p, x, y))
                       - float(int(x) ^ int(y))) <= 1e-12
    assert time.perf_counter() - start < 5.0


def test_criterion_06_outsample_oracle():
    data = builtin("outsample_fig7_2")
    params = {"s0": CopulaParam.zero(), "s1": CopulaParam.one(),
              "sinf": CopulaParam.infinity()}
    assert len(data) == 5 and data.targets == ("s0", "s1", "sinf")
    for (x1, x2), targs in data.rows:
        for col, t in zip(data.targets, targs):
            assert abs(t - float(xor_f(params[col], x1, x2))) <= 1e-12


def test_criterion_07_forward_fidelity():
    # worked linear example
    lin = _net("2-2-1/inp-id-id", LIN_W1, LIN_W2)
    assert abs(lin.output((0.0, 1.0)) - 0.18) < 1e-15
    # a known tanh solution, weights given to four significant digits
    tanh1 = _net("2-2-1/inp-tanh-tanh",
                 [[2.320, 2.331, -0.850], [1.743, 1.747, -2.653]],
                 [[2.68, -2.704, -0.826]])
    assert tanh1.output((0.75, 0.5)) == pytest.approx(0.994616, abs=1e-3)
    # exact relu constructions of the two limit surfaces
    f0_net = _net("2-2-1/inp-relu-relu",
                  [[1, -1, 0], [-1, 1, 0]], [[1, 1, 0]])
    finf_net = _net("2-2-1/inp-relu-relu",
                    [[1, 1, 0], [1, 1, -1]], [[1, -2, 0]])
    assert f0_net.output((0.75, 0.5)) == pytest.approx(0.25, abs=1e-12)
    assert finf_net.output((0.75, 0.5)) == pytest.approx(0.75, abs=1e-12)
    for net, kind in ((f0_net, "F0"), (finf_net, "Finf")):
        label = classify(net, grid=21)
        assert label.kind == kind
        assert label.max_deviation < 1e-9


def test_criterion_08_layer_collapse():
    rng = random.Random(1234)
    for spec in ("2-2-1/inp-id-id", "2-3-2-1/inp-id-id-id"):
        topo = parse_spec(spec)
        for _ in range(100):
            mats = tuple(Matrix.from_rows(
                [[rng.uniform(-1, 1) for _ in range(c)] for _ in range(r)])
                for r, c in topo.weight_shapes())
            net = Network(topo, mats)
            flat = collapse_linear(net)
            for _ in range(100):
                ins = (rng.random(), rng.random())
                assert abs(flat.output(ins) - net.output(ins)) <= 1e-12


def _fd_gradient(net, inputs, target, h):
    rows_per_layer = [w.to_rows() for w in net.weights]
    out = []
    for l, w in enumerate(net.weights):
        g = []
        for i in range(w.rows):
            grow = []
            for j in range(w.cols):
                def err_at(eps):
                    mats = [list(map(list, rs)) for rs in rows_per_layer]
                    mats[l][i][j] += eps
                    moved = Network(net.topology, tuple(
                        Matrix.from_rows(m) for m in mats))
                    d = moved.output(inputs) - target
                    return d * d
                grow.append((err_at(h) - err_at(-h)) / (2.0 * h))
            g.append(grow)
        out.append(g)
    return out


def test_criterion_09_gradient_check():
    h = 1e-5
    rng = random.Random(99)
    tags = ("id", "tanh", "sigmoid", "relu")
    for a1, a2 in product(tags, tags):
        topo = parse_spec(f"2-2-1/inp-{a1}-{a2}")
        checked = 0
        while checked < 20:
            mats = tuple(Matrix.from_rows(
                [[rng.uniform(-1.5, 1.5) for _ in range(c)]
                 for _ in range(r)])
                for r, c in topo.weight_shapes())
            net = Network(topo, mats)
            inputs = (rng.random(), rng.random())
            target = rng.random()
            if "relu" in (a1, a2):
                # keep every relu pre-activation clear of its fold so the
                # centered difference stays one-sided
                trace = forward(net, inputs)
                folds = [abs(z) for layer, act in enumerate(topo.activations)
                         if act is ACTIVATIONS["relu"]
                         for z in trace.pre[layer]]
                if folds and min(folds) < 1e-2:
                    continue
            analytic = gradient(net, inputs, target)
            numeric = _fd_gradient(net, inputs, target, h)
            for ga, gn in zip(analytic, numeric):
                for i in range(ga.rows):
                    for j in range(ga.cols):
                        g = ga.at(i, j)
                        tol = max(1e-6, 1e-4 * abs(g))
                        assert abs(g - gn[i][j]) <= tol, (a1, a2, i, j)
            checked += 1


def test_criterion_10_training_statistics():
    start = time.perf_counter()
    tanh_cfg = TrainConfig(seed=0, learning_rate=0.5)
    tanh_entries = sweep("2-2-1/inp-tanh-tanh", XOR, tanh_cfg, 50,
                         classify_tol=0.1)
    relu_cfg = TrainConfig(seed=0)
    relu_entries = sweep("2-2-1/inp-relu-relu", XOR, relu_cfg, 50)
    assert time.perf_counter() - start < 120.0

    tanh_conv = [e for e in tanh_entries if e.result.converged]
    assert len(tanh_conv) >= 30     # >= 60% of 50

    # relu clause: among converged runs the dominant limit shapes are
    # Finf then F0.  Runs the classifier leaves Unclassified at the strict
    # 0.05 tolerance are counted by their nearest limit shape; relu
    # solutions cluster around the limit shapes but sit up to ~0.15 away.
    shapes = {
        "F0": lambda x, y: abs(x - y),
        "F1": lambda x, y: x + y - 2 * x * y,
        "Finf": lambda x, y: min(x + y, 1.0) - max(x + y - 1.0, 0.0),
        "ConstHalf": lambda x, y: 0.5,
    }
    pts = [(i / 20.0, j / 20.0) for i in range(21) for j in range(21)]

    def nearest_shape(net):
        fn = net.predictor()
        outs = [fn(x, y) for x, y in pts]
        devs = {kind: max(abs(o - s(x, y))
                          for (x, y), o in zip(pts, outs))
                for kind, s in shapes.items()}
        return min(devs, key=devs.get)

    relu_conv = [e for e in relu_entries if e.result.converged]
    assert relu_conv, "no relu run converged"
    counts: dict = {}
    for e in relu_conv:
        kind = (e.label.kind if e.label.kind in shapes
                else nearest_shape(e.result.final_net))
        counts[kind] = counts.get(kind, 0) + 1
    ranked = sorted(counts, key=counts.get, reverse=True)
    assert set(ranked[:2]) <= {"Finf", "F0"}, counts
    assert counts.get("Finf", 0) >= counts.get("F0", 0), counts
    assert counts.get("Finf", 0) + counts.get("F0", 0) \
        >= 0.8 * len(relu_conv), counts
    # strictly-classified subset agrees with the ordering
    strict = [e.label.kind for e in relu_conv if e.label.kind in shapes]
    assert strict.count("Finf") >= strict.count("F0")

    # tanh clause, asserted as written; open failure, see module docstring
    not_step = {e.seed: (e.label.render(),
                         round(e.label.max_deviation, 3))
                for e in tanh_conv if e.label.kind != "StepAbs"}
    assert not not_step, (
        f"{len(not_step)}/{len(tanh_conv)} converged tanh runs are not "
        f"within 0.1 of the step surface on the included lattice: "
        f"{not_step}")


def test_criterion_11_linear_nonseparability():
    floor = 1.0 - 1e-6
    for seed in range(10):
        cfg = TrainConfig(seed=seed, record_trajectory=True)
        result = train("2-2-1/inp-id-id", XOR, cfg)
        assert not result.converged
        assert result.final_sse >= floor
        assert min(result.trajectory) >= floor


def test_criterion_12_surface_facts():
    start = time.perf_counter()
    assert len(enumerate_pairs(parse_spec("2-2-1/inp-id-id"))) == 36

    lin = _net("2-2-1/inp-id-id", LIN_W1, LIN_W2)
    grid = project(lin, XOR, parse_coord("w2_11"), parse_coord("w2_12"),
                   steps=101)
    stats = landscape_stats(grid)
    assert stats.strict_minima == 1
    for line in list(grid.values) + list(zip(*grid.values)):
        for u, v, w in zip(line, line[1:], line[2:]):
            assert u - 2.0 * v + w >= -1e-9

    relu = _net("2-2-1/inp-relu-relu", LIN_W1, LIN_W2)
    relu_grid = project(relu, XOR, parse_coord("w1_11"),
                        parse_coord("w1_12"), steps=101)
    assert landscape_stats(relu_grid).plateau_fraction > 0.0
    assert time.perf_counter() - start < 10.0


def test_criterion_13_weight_counting():
    assert count_weights("2-9-1") == 37
    assert count_weights("2-4-4-1") == 37
    for n in range(1, 11):
        assert count_weights((2, n, 1)) == 4 * n + 1
    for p in range(1, 11):
        for q in range(1, 11):
            assert count_weights((2, p, q, 1)) == p * q + 3 * p + 2 * q + 1


def test_criterion_14_problogic_suite():
    want = {
        "fig2_1": {"x1": 0.5, "x2": 0.5, "and": 0.3, "or": 0.7, "xor": 0.4},
        "fig2_4": {"x1": 0.4, "x2": 0.7, "and": 0.1, "or": 1.0, "xor": 0.9},
    }
    for name, table in want.items():
        freqs = empirical_frequencies(builtin(name))
        assert {k: float(v) for k, v in freqs.items()} == table
        verdict = check_consistency(freqs["x1"], freqs["x2"],
                                    freqs["and"], freqs["or"])
        assert verdict.consistent, (verdict.failures(), freqs)

    expr = parse_expr("x1 xor x2")
    rng = random.Random(5150)
    for _ in range(100):
        s = math.exp(rng.uniform(math.log(1e-2), math.log(1e2)))
        x, y = rng.random(), rng.random()
        p = CopulaParam.finite(s)
        want_v = x + y - 2.0 * float(frank_and(p, x, y))
        got = float(copula_prob(expr, {"x1": x, "x2": y}, p))
        assert abs(got - min(1.0, max(0.0, want_v))) <= 1e-9
