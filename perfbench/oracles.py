"""Output checks that do not use the program's own code.

Every check rebuilds the expected value with numpy or plain math from the
definitions in the paper (network forward pass, limit surfaces, Frank
closed form, truth tables) and returns a list of problems; an empty list
means the output is accepted.  The benchmark counts any non-empty list as
a failed operation.
"""

from __future__ import annotations

import csv
import itertools
import json
import math

import numpy as np

from netspec import flat_index, parse_spec

# Boolean xor, the only dataset the workloads train and project on.
XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_T = np.array([0.0, 1.0, 1.0, 0.0])

ABS_TOL = 1e-9          # float-order differences between numpy and loops
REL_TOL = 1e-9
SOLVE_TOL = 1e-9        # solve_s docstring: p is hit within this
# solve_s docstring: inside the One window (|s - 1| <= 1e-6) the miss on p
# can exceed SOLVE_TOL; |dA/ds| <= 1/32 at s = 1 bounds it by ~3.2e-8.
ONE_WINDOW_MISS = 5e-8
AXIOM_TOL = 1e-9        # check_consistency docstring

_ACTS = {
    "id": lambda z: z,
    "tanh": np.tanh,
    "sigmoid": lambda z: 1.0 / (1.0 + np.exp(-z)),
    "relu": lambda z: np.maximum(z, 0.0),
}


def forward(sizes, acts, flat_w, inputs):
    """Network output for inputs of shape (..., n_in) and weights of shape
    (..., n_weights), each layer row being (incoming weights..., bias)."""
    w = np.asarray(flat_w, dtype=float)
    a = np.asarray(inputs, dtype=float)
    pos = 0
    for n_in, n_out, act in zip(sizes, sizes[1:], acts):
        block = w[..., pos:pos + n_out * (n_in + 1)]
        block = block.reshape(block.shape[:-1] + (n_out, n_in + 1))
        pos += n_out * (n_in + 1)
        z = np.einsum("...oi,...i->...o", block[..., :n_in], a) \
            + block[..., n_in]
        a = _ACTS[act](z)
    return a[..., 0]


def sse(sizes, acts, flat_w):
    """SSE over boolean xor; flat_w may carry leading grid axes."""
    w = np.asarray(flat_w, dtype=float)[..., None, :]
    out = forward(sizes, acts, w, XOR_X)
    return ((out - XOR_T) ** 2).sum(axis=-1)


# ---------------------------------------------------------------------------
# Frank copula

def frank_and(kind: str, s, x, y):
    """A_s(x, y) from its definition: the three limits, or
    log1p(expm1(xL) expm1(yL) / expm1(L)) / L with L = ln s."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if kind == "zero":
        return np.minimum(x, y)
    if kind == "one":
        return x * y
    if kind == "inf":
        return np.maximum(x + y - 1.0, 0.0)
    L = math.log(s)
    if L == 0.0:
        return x * y
    return np.log1p(np.expm1(x * L) * np.expm1(y * L) / math.expm1(L)) / L


def frank_xor(s: float, x, y):
    """F_s = x + y - 2 A_s, clipped to [0, 1] as a probability."""
    return np.clip(x + y - 2.0 * frank_and("finite", s, x, y), 0.0, 1.0)


# ---------------------------------------------------------------------------
# sweeps

def lattice(grid: int = 21):
    """(x, y) of the grid x grid lattice on [0,1]^2, x-major."""
    axis = np.arange(grid) / (grid - 1)
    xs, ys = np.meshgrid(axis, axis, indexing="ij")
    return xs, ys


def fixed_deviations(outs, grid: int = 21) -> dict:
    """Worst |out - candidate| on the lattice for each fixed limit shape.

    The step surface (1 off the zero corners) is compared on the open
    interior, more than one lattice step (Chebyshev) from (0,0) and (1,1).
    """
    x, y = lattice(grid)
    shapes = {
        "F0": np.abs(x - y),
        "F1": x + y - 2.0 * x * y,
        "Finf": np.minimum(x + y, 1.0) - np.maximum(x + y - 1.0, 0.0),
        "ConstHalf": np.full_like(x, 0.5),
    }
    devs = {k: float(np.max(np.abs(outs - v))) for k, v in shapes.items()}
    i, j = np.meshgrid(np.arange(grid), np.arange(grid), indexing="ij")
    step = grid - 1
    interior = ((i >= 1) & (i <= step - 1) & (j >= 1) & (j <= step - 1)
                & (np.maximum(i, j) > 1)
                & (np.maximum(step - i, step - j) > 1))
    devs["StepAbs"] = (float(np.max(np.abs(outs[interior] - 1.0)))
                       if interior.any() else math.inf)
    return devs


def envelope_ok(outs, tol: float, grid: int = 21):
    """F_0 - tol <= out <= F_inf + tol everywhere; None when a lattice
    point sits within float noise of either edge (both verdicts pass)."""
    x, y = lattice(grid)
    lo = np.abs(x - y) - tol
    hi = np.minimum(x + y, 1.0) - np.maximum(x + y - 1.0, 0.0) + tol
    margin = float(np.min(np.minimum(outs - lo, hi - outs)))
    if abs(margin) <= ABS_TOL:
        return None
    return margin > 0.0


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= ABS_TOL + REL_TOL * abs(b)


def check_sweep_entry(entry, spec: str, seed: int, train_tol: float,
                      max_iters: int, classify_tol: float,
                      grid: int = 21) -> "list[str]":
    """Check one SweepEntry against numpy: SSE and convergence flag, label
    consistent with its deviations, envelope verdict."""
    problems = []
    res, label = entry.result, entry.label
    if entry.seed != seed:
        problems.append(f"seed {entry.seed} != requested {seed}")
    if res.diverged:
        if res.converged or label.kind != "Unclassified" \
                or label.max_deviation != math.inf \
                or entry.envelope_ok is not None:
            problems.append("diverged run not recorded as Unclassified/inf")
        return problems

    sizes, acts = parse_spec(spec)
    flat = [v for m in res.final_net.weights for v in m.entries]
    if not np.all(np.isfinite(flat)):
        return problems + ["non-finite weights on a run not marked diverged"]
    err = float(sse(sizes, acts, flat))
    if not _close(res.final_sse, err):
        problems.append(f"final_sse {res.final_sse!r} != numpy {err!r}")
    if res.converged:
        if not err < train_tol * (1.0 + REL_TOL):
            problems.append(f"converged but numpy SSE {err!r} >= {train_tol}")
        if not 1 <= res.iterations <= max_iters:
            problems.append(f"converged after {res.iterations} iterations")
    else:
        if res.iterations != max_iters:
            problems.append(f"not converged yet stopped at {res.iterations}")
        if err < train_tol * (1.0 - REL_TOL):
            problems.append(f"numpy SSE {err!r} < tol but not converged")

    x, y = lattice(grid)
    pts = np.stack([x, y], axis=-1)
    outs = forward(sizes, acts, flat, pts)
    devs = fixed_deviations(outs, grid)
    best = min(devs.values())
    kind, dev = label.kind, label.max_deviation
    if kind in devs:
        if not _close(dev, devs[kind]):
            problems.append(f"{kind} deviation {dev!r} != numpy "
                            f"{devs[kind]!r}")
        if devs[kind] > classify_tol + ABS_TOL:
            problems.append(f"{kind} deviation {devs[kind]!r} > tol")
        if devs[kind] > best + ABS_TOL:
            problems.append(f"{kind} is not the closest fixed shape: {devs}")
    elif kind == "Fs":
        if label.s is None or not label.s > 0.0:
            problems.append(f"Fs label with s={label.s!r}")
        else:
            fs_dev = float(np.max(np.abs(outs - frank_xor(label.s, x, y))))
            if fs_dev > classify_tol + ABS_TOL:
                problems.append(f"Fs(s={label.s!r}) numpy deviation "
                                f"{fs_dev!r} > tol")
            if abs(fs_dev - dev) > 1e-6:
                problems.append(f"Fs deviation {dev!r} != numpy {fs_dev!r}")
        if best <= classify_tol - ABS_TOL:
            problems.append(f"Fs label although a fixed shape fits: {devs}")
    elif kind == "Unclassified":
        if best <= classify_tol - ABS_TOL:
            problems.append(f"Unclassified although a fixed shape fits: "
                            f"{devs}")
        if dev <= classify_tol - ABS_TOL or dev > best + ABS_TOL:
            problems.append(f"Unclassified deviation {dev!r} inconsistent "
                            f"with best fixed {best!r} and tol")
    else:
        problems.append(f"unknown label kind {kind!r}")

    if res.converged:
        want = envelope_ok(outs, classify_tol, grid)
        if want is not None and entry.envelope_ok is not want:
            problems.append(f"envelope_ok {entry.envelope_ok!r} != numpy "
                            f"{want!r}")
    elif entry.envelope_ok is not None:
        problems.append("envelope checked on a run that did not converge")
    return problems


# ---------------------------------------------------------------------------
# surface projections

def sse_grid(sizes, acts, base_w, ia: int, ib: int, axis_a, axis_b):
    """SSE with weight ia swept over axis_a (rows) and ib over axis_b."""
    w = np.broadcast_to(np.asarray(base_w, dtype=float),
                        (len(axis_a), len(axis_b), len(base_w))).copy()
    w[:, :, ia] = np.asarray(axis_a)[:, None]
    w[:, :, ib] = np.asarray(axis_b)[None, :]
    return sse(sizes, acts, w)


def read_grid_csv(path):
    """(wa, wb, err) columns of a grid CSV, header checked."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["wa", "wb", "err"]:
        raise ValueError(f"bad grid CSV header {rows[:1]!r}")
    return np.array(rows[1:], dtype=float).reshape(-1, 3).T


def check_surface(request: dict, exit_code: int, stdout: str, csv_path,
                  spec: str, base_w) -> "list[str]":
    """Check one `xorlab surface` run: exit code, CSV values against a
    numpy SSE grid, the reported minimum against numpy's argmin, and the
    .meta.json fields against the request."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    problems = []
    sizes, acts = parse_spec(spec)
    a, b = request["pair"]
    lo, hi = request["range"]
    steps = request["steps"]
    axis = np.linspace(lo, hi, steps)
    try:
        wa, wb, err = read_grid_csv(csv_path)
    except (OSError, ValueError) as exc:
        return [f"unreadable grid CSV: {exc}"]
    if err.size != steps * steps:
        return [f"grid has {err.size} cells, want {steps * steps}"]
    err = err.reshape(steps, steps)
    if not (np.allclose(wa.reshape(steps, steps), axis[:, None],
                        rtol=0, atol=1e-12)
            and np.allclose(wb.reshape(steps, steps), axis[None, :],
                            rtol=0, atol=1e-12)):
        problems.append("grid axes differ from the requested lattice")
    want = sse_grid(sizes, acts, base_w, flat_index(a, sizes),
                    flat_index(b, sizes), axis, axis)
    bad = ~np.isclose(err, want, rtol=REL_TOL, atol=1e-12)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        problems.append(f"{int(bad.sum())} cells differ from numpy, first "
                        f"({i}, {j}): {err[i, j]!r} vs {want[i, j]!r}")

    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return problems + [f"stdout is not one JSON document: {stdout!r}"]
    if doc.get("pair") != [a, b] or doc.get("steps") != steps:
        problems.append(f"output echoes pair {doc.get('pair')!r}, steps "
                        f"{doc.get('steps')!r}")
    np_min = float(want.min())
    if not _close(float(doc.get("min_value", math.nan)), np_min):
        problems.append(f"min_value {doc.get('min_value')!r} != numpy "
                        f"{np_min!r}")
    point = doc.get("min_point") or [math.nan, math.nan]
    ia = np.flatnonzero(np.isclose(axis, point[0], rtol=0, atol=1e-12))
    ib = np.flatnonzero(np.isclose(axis, point[1], rtol=0, atol=1e-12))
    if ia.size != 1 or ib.size != 1:
        problems.append(f"min_point {point!r} is not a lattice point")
    elif not want[ia[0], ib[0]] <= np_min + ABS_TOL + REL_TOL * np_min:
        problems.append(f"min_point {point!r} is not numpy's argmin "
                        f"{np.unravel_index(np.argmin(want), want.shape)}")

    try:
        with open(f"{csv_path}.meta.json") as fh:
            meta = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return problems + [f"unreadable .meta.json: {exc}"]
    expect = {"coord_a": a, "coord_b": b, "range_a": [lo, hi],
              "range_b": [lo, hi], "steps": steps,
              "dataset": request["data"], "model": request["model"]}
    for key, value in expect.items():
        if meta.get(key) != value:
            problems.append(f"meta {key} = {meta.get(key)!r}, want {value!r}")
    return problems


# ---------------------------------------------------------------------------
# logic queries

def check_solve(x: float, y: float, p: float, kind: str,
                s: "float | None") -> "list[str]":
    """A at the returned parameter reproduces p within the documented
    tolerance; the returned variant is a valid parameter."""
    if kind not in ("zero", "one", "inf", "finite"):
        return [f"unknown parameter kind {kind!r}"]
    if kind == "finite" and (s is None or not 0.0 < s < math.inf
                             or abs(s - 1.0) <= 1e-6):
        return [f"invalid finite s={s!r}"]
    got = float(frank_and(kind, s, x, y))
    tol = SOLVE_TOL + (ONE_WINDOW_MISS if kind == "one" else 0.0)
    if not abs(got - p) <= tol + 4e-16:
        return [f"A_{kind}(s={s!r}) = {got!r} misses p={p!r} by "
                f"{abs(got - p):.3g}"]
    return []


def eval_tree(tree, env: dict) -> int:
    """Truth value of a nested-tuple expression: ('var', name),
    ('not', t), (op, left, right) with op in and/or/xor."""
    op = tree[0]
    if op == "var":
        return env[tree[1]]
    if op == "not":
        return 1 - eval_tree(tree[1], env)
    left, right = eval_tree(tree[1], env), eval_tree(tree[2], env)
    return {"and": left & right, "or": left | right,
            "xor": left ^ right}[op]


def truth_table_prob(tree, probs: dict) -> float:
    """Pr[tree] with independent variables, by full enumeration."""
    names = sorted(probs)
    total = 0.0
    for bits in itertools.product((0, 1), repeat=len(names)):
        env = dict(zip(names, bits))
        if eval_tree(tree, env):
            weight = 1.0
            for name, bit in env.items():
                weight *= probs[name] if bit else 1.0 - probs[name]
            total += weight
    return total


def compositional_prob(tree, probs: dict, kind: str, s) -> float:
    """Connective-by-connective value: not -> 1 - v, and -> A_s,
    or -> x + y - A_s, xor -> x + y - 2 A_s."""
    op = tree[0]
    if op == "var":
        return probs[tree[1]]
    if op == "not":
        return 1.0 - compositional_prob(tree[1], probs, kind, s)
    u = compositional_prob(tree[1], probs, kind, s)
    v = compositional_prob(tree[2], probs, kind, s)
    a = float(frank_and(kind, s, u, v))
    return {"and": a, "or": u + v - a, "xor": u + v - 2.0 * a}[op]


def check_prob(tree, probs: dict, kind: str, s, value: float) -> "list[str]":
    """At s = 1 (no variable repeats) the value is the independent
    truth-table probability; at other s the compositional value."""
    want = (truth_table_prob(tree, probs) if kind == "one"
            else compositional_prob(tree, probs, kind, s))
    want = min(1.0, max(0.0, want))
    if not abs(value - want) <= ABS_TOL:
        return [f"Pr = {value!r}, want {want!r} (s kind {kind})"]
    return []


def consistency_verdict(x: float, y: float, a: float, r: float) -> dict:
    """The four bounds and additivity, each with tolerance 1e-9."""
    return {
        "and_lower_bound": a >= -AXIOM_TOL,
        "and_upper_bound": a <= min(x, y) + AXIOM_TOL,
        "or_lower_bound": r >= max(x, y) - AXIOM_TOL,
        "or_upper_bound": r <= 1.0 + AXIOM_TOL,
        "additivity": abs((a + r) - (x + y)) <= AXIOM_TOL,
    }


def check_consistency(x: float, y: float, kind: str, s, a: float, r: float,
                      checks: dict, consistent: bool) -> "list[str]":
    """frank_and/frank_or values against A_s, and the verdict against
    bounds computed here."""
    problems = []
    want_a = float(frank_and(kind, s, x, y))
    if not abs(a - want_a) <= ABS_TOL:
        problems.append(f"A = {a!r}, want {want_a!r}")
    if not abs(r - (x + y - want_a)) <= ABS_TOL:
        problems.append(f"R = {r!r}, want {x + y - want_a!r}")
    want = consistency_verdict(x, y, a, r)
    if checks != want:
        problems.append(f"checks {checks!r}, want {want!r}")
    if consistent != all(want.values()):
        problems.append(f"consistent = {consistent!r}")
    return problems
