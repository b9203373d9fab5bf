"""Tests of the benchmark itself: oracles reject corrupted outputs, seeds
change inputs but not metric names, names stay in the allowed alphabet,
span accounting and the parity check behave.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import oracles
import worker
from tracing import Tracer, analyse
from workloads import WORKLOADS, Logic, Surface, Sweep

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" /
                                               "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# oracles reject corrupted outputs

@pytest.fixture(scope="module")
def tanh_sweep(tmp_path_factory):
    w = Sweep("t", "2-2-1/inp-tanh-tanh", lr=0.5, classify_tol=0.1)
    w.setup(0, str(tmp_path_factory.mktemp("sweep")))
    return w, w.run(3)


def test_sweep_oracle_accepts_real_entry(tanh_sweep):
    w, entries = tanh_sweep
    assert w.check(3, entries) == []


def test_sweep_oracle_rejects_flipped_label(tanh_sweep):
    w, entries = tanh_sweep
    (entry,) = entries
    kind = "F1" if entry.label.kind != "F1" else "F0"
    bad = dataclasses.replace(
        entry, label=dataclasses.replace(entry.label, kind=kind))
    assert w.check(3, [bad])


def test_sweep_oracle_rejects_wrong_convergence(tanh_sweep):
    w, entries = tanh_sweep
    (entry,) = entries
    res = dataclasses.replace(entry.result,
                              converged=not entry.result.converged)
    assert w.check(3, [dataclasses.replace(entry, result=res)])


@pytest.fixture(scope="module")
def small_surface(tmp_path_factory):
    w = Surface()
    w.steps = 11
    w.setup(0, str(tmp_path_factory.mktemp("surface")))
    return w


def test_surface_oracle_accepts_real_grid(small_surface):
    op = small_surface.pairs[0]
    assert small_surface.check(op, small_surface.run(op)) == []


def test_surface_oracle_rejects_perturbed_cell(small_surface):
    op = small_surface.pairs[1]
    out = small_surface.run(op)
    path = small_surface.request(op)["out"]
    lines = Path(path).read_text().splitlines()
    wa, wb, err = lines[17].split(",")
    lines[17] = f"{wa},{wb},{float(err) * (1 + 1e-6)!r}"
    Path(path).write_text("\n".join(lines) + "\n")
    problems = small_surface.check(op, out)
    assert any("differ from numpy" in p for p in problems), problems


def test_surface_oracle_rejects_wrong_meta(small_surface):
    op = small_surface.pairs[2]
    out = small_surface.run(op)
    meta = small_surface.request(op)["out"] + ".meta.json"
    doc = json.loads(Path(meta).read_text())
    doc["steps"] = 12
    Path(meta).write_text(json.dumps(doc))
    assert any("meta steps" in p for p in small_surface.check(op, out))


@pytest.fixture(scope="module")
def logic(tmp_path_factory):
    w = Logic()
    w.setup(0, str(tmp_path_factory.mktemp("logic")))
    return w


def test_logic_oracle_rejects_off_s(logic):
    from xorlab import copula
    x, y, p = 0.3, 0.6, 0.15
    param = copula.solve_s(x, y, p)
    assert param.kind == "finite"
    assert oracles.check_solve(x, y, p, param.kind, param.s) == []
    assert oracles.check_solve(x, y, p, param.kind, param.s * 1.01)


@pytest.mark.xfail(strict=True, reason=(
    "program defect: a feasible p between the Frechet bound and A_s at "
    "the 1e8 dispatch threshold has its root beyond the threshold, where "
    "the program's A_s jumps to its limit, so solve_s misses p"))
def test_solve_s_reaches_p_beyond_dispatch_threshold():
    from xorlab import copula
    x, y, p = 0.5, 0.5, 0.02      # A_s(0.5, 0.5) at s = 1e8 is 0.0376
    param = copula.solve_s(x, y, p)
    assert oracles.check_solve(x, y, p, param.kind, param.s) == []


def test_logic_oracle_rejects_wrong_probability_and_verdict(logic):
    prob = next(q for q in logic.queries if q[0] == "prob")
    value = logic.run(prob)
    assert logic.check(prob, value) == []
    assert logic.check(prob, float(value) + 1e-6)

    cons = next(q for q in logic.queries if q[0] == "consistency")
    a, r, verdict = logic.run(cons)
    assert logic.check(cons, (a, r, verdict)) == []
    flipped = dataclasses.replace(verdict, checks=tuple(
        dataclasses.replace(c, ok=not c.ok) if i == 0 else c
        for i, c in enumerate(verdict.checks)))
    assert logic.check(cons, (a, r, flipped))


def test_truth_table_matches_closed_forms():
    probs = {"a": 0.3, "b": 0.8}
    tree = ("xor", ("var", "a"), ("var", "b"))
    assert math.isclose(oracles.truth_table_prob(tree, probs),
                        0.3 + 0.8 - 2 * 0.3 * 0.8)
    assert math.isclose(
        oracles.compositional_prob(tree, probs, "one", None),
        oracles.truth_table_prob(tree, probs))


# ---------------------------------------------------------------------------
# seeds, names, contract

def test_seed_changes_inputs(tmp_path):
    def inputs(w, seed):
        workdir = tmp_path / f"{w.name}-{seed}"
        workdir.mkdir()
        w.setup(seed, str(workdir))
        ops = w.ops()
        return [next(ops) for _ in range(5)]

    for w in (Logic(), Sweep("s", "2-2-1/inp-relu-relu")):
        assert inputs(w, 1) != inputs(w, 2)
    surface = Surface()
    first = inputs(surface, 1)
    base_1 = Path(surface.models["tanh"][1]).read_text()
    assert inputs(surface, 2) != first
    assert Path(surface.models["tanh"][1]).read_text() != base_1


def test_metric_names_do_not_depend_on_seed():
    want_e2e = {m["name"] for m in CONTRACT["end_to_end"]}
    want_layer = {m["name"] for m in CONTRACT["per_layer"]}
    for seed in (1, 2):
        doc = last_json(run_bench("--workload", "logic", "--seed",
                                  str(seed), "--seconds", "1"))
        assert set(doc["metrics"]) == want_e2e
    for name in ("sweep-tanh", "sweep-relu", "surface"):
        doc = last_json(run_bench("--workload", name, "--seed", "3",
                                  "--seconds", "1"))
        assert set(doc["metrics"]) == want_e2e
        assert doc["correct"] is True and doc["attempted"] >= 1
    doc = last_json(run_bench("--workload", "sweep-tanh", "--seed", "4",
                              "--seconds", "1", "--trace", "1"))
    assert set(doc["metrics"]) == want_layer
    assert doc["metrics"]["trainer.classify.busy_s"]["value"] > 0


def test_printed_names_use_allowed_alphabet():
    names = [w["name"] for w in CONTRACT["workloads"]]
    names += [m["name"] for m in CONTRACT["end_to_end"]
              + CONTRACT["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), names
    assert set(names[:len(WORKLOADS)]) == set(WORKLOADS)
    proc = run_bench("--workload", "logic", "--seed", "5", "--seconds", "1",
                     "--trace", "1")
    doc = last_json(proc)
    assert all(NAME.match(n) for n in doc["metrics"])
    printed = [line.split()[0] for line in proc.stdout.splitlines()
               if line.startswith("   ") and not line.startswith("   (")]
    spans = [n for n in printed if "." in n]
    assert spans and all(NAME.match(n) for n in spans), spans


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "logic", "--seed", "1", "--seconds", "1",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ---------------------------------------------------------------------------
# tracing and parity

def test_spans_nest_and_self_times_add_up():
    mod = types.ModuleType("xorlab.fake")
    exec("def inner(n):\n    return sum(range(n))\n"
         "def outer(n):\n    return inner(n) + inner(n)\n", mod.__dict__)
    for fn in (mod.inner, mod.outer):
        fn.__module__ = "xorlab.fake"
    tracer = Tracer(("fake",))
    tracer.install([mod])
    try:
        assert tracer.run_op(7, mod.outer, 10000) == 2 * sum(range(10000))
        mod.outer(10)           # outside an operation: not recorded
    finally:
        tracer.uninstall()
    stats, problems = analyse(tracer.spans)
    assert problems == []
    assert {s.name for s in tracer.spans} == {"op", "fake.outer",
                                              "fake.inner"}
    assert stats["fake.inner"].calls == 2
    root = next(s for s in tracer.spans if s.name == "op")
    total_self = sum(st.self_s for st in stats.values())
    assert math.isclose(total_self, root.duration, rel_tol=1e-9)
    assert stats["fake.outer"].busy_s >= stats["fake.inner"].busy_s
    assert all(s.op == 7 for s in tracer.spans)


def test_span_outside_parent_is_reported():
    from tracing import Span
    spans = [Span(0, "op", 0.0, 1.0, None, 0),
             Span(1, "x", 0.5, 1.5, 0, 0)]
    assert analyse(spans)[1]


def test_parity_counts_a_mismatch(monkeypatch):
    from xorlab import _pycore, kernels
    fake = types.SimpleNamespace(
        sse_dataset=lambda *a: _pycore.sse_dataset(*a) + 1e-16)
    monkeypatch.setattr(kernels, "available_backends",
                        lambda: ("c", "python"))
    monkeypatch.setattr(kernels, "get_backend",
                        lambda n: fake if n == "c" else _pycore)
    tally = worker.Tally("t")
    args = ([2, 2, 1], [1, 1], [0.5] * 9, [0.0, 0.0, 1.0, 1.0],
            [0.0, 1.0])
    worker.parity([("sse_dataset", args)], tally)
    assert (tally.attempted, tally.failed) == (1, 1)
