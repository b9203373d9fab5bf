"""Training driver, function classification, sweeps."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import classify_reference
from xorlab import kernels, network, trainer
from xorlab.copula import CopulaParam, xor_f, xor_f_lattice
from xorlab.datasets import Dataset, builtin, grid_axis
from xorlab.errors import DivergenceError, DomainError, ShapeError
from xorlab.linalg import Matrix, least_squares
from xorlab.network import Network, collapse_linear, forward, parse_spec
from xorlab.trainer import (FunctionLabel, TrainConfig, _fs_deviation,
                            _golden_min, classify, envelope_check,
                            label_histogram, run_metadata, sse, sweep, train)

XOR = builtin("boolean_xor")

# exactly representable by a linear net, so id-id training can hit tol
LINEAR = Dataset("linear_toy", ("x1", "x2"), ("target",), (
    ((0.0, 0.0), (0.1,)), ((0.0, 1.0), (0.3,)), ((1.0, 0.0), (0.4,)),
    ((1.0, 1.0), (0.6,)), ((0.5, 0.5), (0.35,))))


def test_config_validation():
    for kwargs in ({"learning_rate": 0.0}, {"learning_rate": -1.0},
                   {"tol": 0.0}, {"max_iters": 0}, {"mode": "batchy"},
                   {"init_range": 0.0}):
        with pytest.raises(DomainError):
            TrainConfig(seed=0, **kwargs)


def test_max_iters_is_at_most_a_c_int():
    # kern.c counts iterations in a C int, so both backends stop there
    assert TrainConfig(seed=0, max_iters=2**31 - 1).max_iters == 2**31 - 1
    with pytest.raises(DomainError, match=r"^max_iters must be at most "
                       r"2147483647, got 2147483648$"):
        TrainConfig(seed=0, max_iters=2**31)
    with pytest.raises(DomainError, match=r"^max_iters must be at least 1, "
                       r"got 0$"):
        TrainConfig(seed=0, max_iters=0)


_SETTINGS = ("learning_rate", "tol", "init_range")


@settings(max_examples=300, deadline=None)
@given(st.tuples(st.floats(), st.floats(), st.floats()))
@example((math.nan, 1e-3, 1.0))
@example((0.5, math.nan, 1.0))
@example((0.5, 1e-3, math.nan))
@example((0.5, math.inf, 1.0))
@example((-math.inf, 1e-3, 1.0))
@example((5e-324, 5e-324, 5e-324))
@example((-5e-324, 1e-3, 1.0))
def test_config_takes_only_finite_positive_settings(values):
    # st.floats draws NaN, +-inf, negatives, signed zeros and subnormals
    kwargs = dict(zip(_SETTINGS, values))
    if not all(math.isfinite(v) and v > 0.0 for v in values):
        with pytest.raises(DomainError):
            TrainConfig(seed=0, **kwargs)
        return
    cfg = TrainConfig(seed=0, **kwargs)
    assert all(math.isfinite(getattr(cfg, name)) and getattr(cfg, name) > 0.0
               for name in _SETTINGS)


def test_one_sample_dataset_trains_and_sweeps():
    one = Dataset("one_sample", ("x1", "x2"), ("target",),
                  (((0.0, 1.0), (1.0,)),))
    cfg = TrainConfig(seed=4, learning_rate=0.5, max_iters=500)
    result = train("2-2-1/inp-tanh-tanh", one, cfg)
    assert result.converged and result.final_sse < cfg.tol
    entries = sweep("2-2-1/inp-tanh-tanh", one, cfg, 3)
    assert [e.seed for e in entries] == [4, 5, 6]
    assert entries[0].result == result
    assert all(e.result.converged and e.envelope_ok is not None
               for e in entries)


def test_train_is_deterministic():
    cfg = TrainConfig(seed=42, max_iters=200)
    a = train("2-2-1/inp-tanh-tanh", XOR, cfg)
    b = train("2-2-1/inp-tanh-tanh", XOR, cfg)
    assert a.iterations == b.iterations
    assert a.final_sse == b.final_sse
    for wa, wb in zip(a.final_net.weights, b.final_net.weights):
        assert wa.entries == wb.entries


def test_train_converges_on_linear_toy():
    cfg = TrainConfig(seed=3, learning_rate=0.05, mode="full_batch",
                      max_iters=5000)
    result = train("2-2-1/inp-id-id", LINEAR, cfg)
    assert result.converged
    assert result.final_sse < cfg.tol
    assert not result.diverged


def test_full_batch_small_lr_monotone_sse():
    cfg = TrainConfig(seed=5, learning_rate=1e-3, mode="full_batch",
                      max_iters=400, record_trajectory=True)
    result = train("2-2-1/inp-id-id", XOR, cfg)
    traj = result.trajectory
    assert len(traj) == result.iterations
    for prev, cur in zip(traj, traj[1:]):
        assert cur <= prev + 1e-12


def test_linear_training_reaches_least_squares_plane():
    """Collapsed id-id weights land on the normal-equations solution."""
    cfg = TrainConfig(seed=1, learning_rate=0.05, mode="full_batch",
                      max_iters=20000)
    result = train("2-2-1/inp-id-id", builtin("boolean_and"), cfg)
    flat = collapse_linear(result.final_net).weights[0]
    ref = least_squares(
        Matrix.from_rows([[0, 0, 1, 1], [0, 1, 0, 1], [1, 1, 1, 1]]),
        Matrix.from_rows([[0, 0, 0, 1]]))
    for j in range(3):
        assert abs(flat.at(0, j) - ref.at(0, j)) < 1e-3


def test_train_respects_tolerance_and_iteration_cap():
    cfg = TrainConfig(seed=2, max_iters=25)
    result = train("2-2-1/inp-tanh-tanh", XOR, cfg)
    assert result.iterations == 25
    assert not result.converged


def test_train_divergence_carries_state():
    cfg = TrainConfig(seed=0, learning_rate=100.0, mode="full_batch",
                      max_iters=500)
    with pytest.raises(DivergenceError) as exc:
        train("2-2-1/inp-id-id", XOR, cfg)
    err = exc.value
    assert err.sse > kernels.SSE_BLOWUP or not math.isfinite(err.sse)
    assert err.iteration >= 1
    assert err.net is not None


# lr 1e200 overflows the first id-layer update to inf and then NaN
NAN_STATE = dict(seed=0, learning_rate=1e200, max_iters=50)


def test_train_nonfinite_state_diverges_without_net():
    with pytest.raises(DivergenceError) as exc:
        train("2-2-1/inp-tanh-id", XOR, TrainConfig(**NAN_STATE))
    err = exc.value
    assert "non-finite state" in str(err)
    assert not math.isfinite(err.sse)
    assert err.net is None


def test_sweep_records_nonfinite_divergence():
    entries = sweep("2-2-1/inp-tanh-id", XOR, TrainConfig(**NAN_STATE), 2)
    assert [e.seed for e in entries] == [0, 1]
    for e in entries:
        assert e.result.diverged and not e.result.converged
        assert e.result.final_net is None
        assert e.label == FunctionLabel("Unclassified", math.inf)
        assert e.envelope_ok is None


def test_train_shape_checks():
    with pytest.raises(ShapeError):
        train("3-2-1/inp-id-id", XOR, TrainConfig(seed=0))
    with pytest.raises(ShapeError):
        train("2-2-2/inp-id-id", XOR, TrainConfig(seed=0))
    with pytest.raises(ShapeError):
        train("2-2-1/inp-id-id", builtin("fig2_1"), TrainConfig(seed=0))


def test_sse_helper():
    assert sse(lambda x1, x2: 0.5, XOR) == 1.0
    assert sse(lambda x1, x2: float(int(x1) ^ int(x2)), XOR) == 0.0


# -- classification ---------------------------------------------------------

def test_classify_exact_limit_functions():
    cases = [
        (lambda x, y: abs(x - y), "F0"),
        (lambda x, y: x + y - 2 * x * y, "F1"),
        (lambda x, y: min(x + y, 1.0) - max(x + y - 1.0, 0.0), "Finf"),
        (lambda x, y: 0.5, "ConstHalf"),
    ]
    for fn, kind in cases:
        label = classify(fn)
        assert label.kind == kind
        assert label.max_deviation == 0.0


def test_classify_step_surface_ignores_corner_neighborhoods():
    def step(x, y):
        return 0.0 if (x, y) in ((0.0, 0.0), (1.0, 1.0)) else 1.0
    label = classify(step)
    assert label.kind == "StepAbs"
    assert label.max_deviation == 0.0
    # ... even when the approach to the corners is soft
    def soft(x, y):
        if (x, y) in ((0.0, 0.0), (1.0, 1.0)):
            return 0.0
        if min(x + y, 2 - x - y) <= 0.051:   # one lattice step at grid=21
            return 0.4
        return 1.0
    assert classify(soft).kind == "StepAbs"


def test_classify_fits_finite_s():
    p = CopulaParam.finite(3.0)
    label = classify(lambda x, y: float(xor_f(p, x, y)))
    assert label.kind == "Fs"
    assert label.s == pytest.approx(3.0, abs=0.1)
    assert label.max_deviation < 1e-3
    assert label.render().startswith("Fs(s=")


def test_classify_tolerance_widens_fixed_match():
    p = CopulaParam.finite(3.0)
    fn = lambda x, y: float(xor_f(p, x, y))
    wide = classify(fn, tol=0.10)
    assert wide.kind == "F1"    # within 0.1 of independence everywhere


def test_classify_unclassified_carries_best_deviation():
    label = classify(lambda x, y: 0.5 + 0.4 * math.sin(9 * x * y))
    assert label.kind == "Unclassified"
    assert 0.0 < label.max_deviation < 1.0
    assert label.render() == "Unclassified"


def test_classify_validation():
    with pytest.raises(DomainError):
        classify(lambda x, y: 0.5, grid=1)
    from xorlab.network import parse_spec, Network
    topo = parse_spec("3-2-1/inp-tanh-tanh")
    mats = tuple(Matrix.from_rows([[0.0] * c for _ in range(r)])
                 for r, c in topo.weight_shapes())
    with pytest.raises(ShapeError):
        classify(Network(topo, mats))


def test_classify_nonfinite_output_is_unclassified():
    nan_at_centre = lambda x, y: (math.nan if (x, y) == (0.5, 0.5)
                                  else abs(x - y))
    for fn in (lambda x, y: math.nan, lambda x, y: math.inf,
               lambda x, y: -math.inf, nan_at_centre):
        assert classify(fn) == FunctionLabel("Unclassified", math.inf)
        assert classify(fn, tol=10.0, grid=5).max_deviation == math.inf


def test_envelope_check():
    assert envelope_check(lambda x, y: abs(x - y))
    assert envelope_check(
        lambda x, y: min(x + y, 1.0) - max(x + y - 1.0, 0.0))
    assert not envelope_check(lambda x, y: 1.2)
    assert not envelope_check(lambda x, y: 0.5)  # breaches F0 at corners


def test_envelope_check_nonfinite_output_fails():
    assert not envelope_check(lambda x, y: math.nan)
    assert not envelope_check(lambda x, y: math.nan, tol=math.inf)
    assert not envelope_check(
        lambda x, y: math.nan if (x, y) == (0.5, 0.5) else abs(x - y))


def test_envelope_check_validates_grid():
    for grid in (1, 0, -3):
        with pytest.raises(DomainError):
            envelope_check(lambda x, y: abs(x - y), grid=grid)
    assert envelope_check(lambda x, y: abs(x - y), grid=2)


# -- the lattice F_s fit against the point-wise reference --------------------

def _ref_fs_deviation(pts, outs, t):
    """The point-wise fit: one validated xor_f call per lattice point."""
    param = CopulaParam.finite(t / (1.0 - t))
    worst = 0.0
    for (x, y), o in zip(pts, outs):
        d = abs(o - float(xor_f(param, x, y)))
        if d > worst:
            worst = d
    return worst


# the fixed candidates, written out here so the reference does not move
# with the code under test
_REF_CANDIDATES = (
    ("F0", lambda x, y: abs(x - y)),
    ("F1", lambda x, y: x + y - 2.0 * x * y),
    ("Finf", lambda x, y: min(x + y, 1.0) - max(x + y - 1.0, 0.0)),
    ("ConstHalf", lambda x, y: 0.5))


def _ref_classify(fn, tol=0.05, grid=21):
    """classify as written before the lattice fit (finite outputs only)."""
    step = grid - 1
    pts = [(i / step, j / step) for i in range(grid) for j in range(grid)]
    outs = [float(fn(x, y)) for x, y in pts]
    scored = []
    for kind, cand in _REF_CANDIDATES:
        worst = 0.0
        for (x, y), o in zip(pts, outs):
            d = abs(o - cand(x, y))
            if d > worst:
                worst = d
        scored.append((worst, kind))
    interior = [abs(outs[i * grid + j] - 1.0)
                for i in range(1, grid - 1) for j in range(1, grid - 1)
                if max(i, j) > 1 and max(step - i, step - j) > 1]
    scored.append((max(interior) if interior else math.inf, "StepAbs"))
    best_dev, best_kind = min(scored, key=lambda sc: sc[0])
    if best_dev <= tol:
        return FunctionLabel(best_kind, best_dev)
    ts = [k / 50.0 for k in range(1, 50)]
    devs = [_ref_fs_deviation(pts, outs, t) for t in ts]
    k = devs.index(min(devs))
    lo = ts[k - 1] if k > 0 else 0.02 / 2.0
    hi = ts[k + 1] if k < len(ts) - 1 else (0.98 + 1.0) / 2.0
    t_star, fit_dev = _golden_min(lambda t: _ref_fs_deviation(pts, outs, t),
                                  lo, hi)
    if fit_dev <= tol:
        return FunctionLabel("Fs", fit_dev, s=t_star / (1.0 - t_star))
    return FunctionLabel("Unclassified", min(best_dev, fit_dev))


def _outcome(fn, *args):
    """repr of the result, or the type and message of the error raised."""
    try:
        return repr(fn(*args))
    except DomainError as err:
        return f"{type(err).__name__}: {err}"


def _same_label(a, b):
    return (a.kind, repr(a.max_deviation), repr(a.s)) == \
        (b.kind, repr(b.max_deviation), repr(b.s))


# scan values, the One window |t - 1/2| <= 2.5e-7 and its edges, and both
# dispatch thresholds (s = 1e-8 at t ~ 1e-8, s = 1e8 at t ~ 1 - 1e-8).
# Just above s = 1e-8 the closed form leaves _unit's window and
# xor_f raises DomainError; the lattice must raise the same error.
PARITY_TS = ([k / 50.0 for k in range(1, 50)]
             + [0.5 + d for d in (0.0, 1e-9, -1e-7, 2.4e-7, -2.5e-7, 2.5e-7,
                                  2.6e-7, -2.6e-7, 3e-7, 1e-6)]
             + [5e-9, 1e-8 / (1.0 + 1e-8), 1e-8, 2e-8, 1e-12, 0.01, 0.99,
                1.0 - 5e-9, 1e8 / (1.0 + 1e8), 1.0 - 1e-8, 1.0 - 2e-8,
                1.0 - 1e-12])


def _parity_outputs(grid):
    step = grid - 1
    pts = [(i / step, j / step) for i in range(grid) for j in range(grid)]
    rng = random.Random(11)
    tanh_net = lambda x, y: math.tanh(2.0 * x - 1.7 * y + 0.3) ** 2
    return pts, [
        [tanh_net(x, y) for x, y in pts],
        [rng.uniform(-0.2, 1.2) for _ in pts],
        [float(xor_f(CopulaParam.finite(3.0), x, y)) for x, y in pts],
        [abs(x - y) for x, y in pts],
    ]


@pytest.mark.parametrize("grid", [21, 11, 2])
def test_fs_deviation_matches_pointwise_fit_exactly(grid):
    pts, cases = _parity_outputs(grid)
    for outs in cases:
        for t in PARITY_TS:
            assert _outcome(_fs_deviation, outs, grid, t) == \
                _outcome(_ref_fs_deviation, pts, outs, t), t


def test_xor_f_lattice_matches_xor_f_bitwise():
    axis = [i / 20.0 for i in range(21)] + [1e-300, 0.3 + 1e-16]
    params = [CopulaParam.zero(), CopulaParam.one(), CopulaParam.infinity()]
    params += [CopulaParam.finite(t / (1.0 - t)) for t in PARITY_TS]
    params += [CopulaParam.finite(s) for s in (1e-9, 0.003, 0.2, 1.7, 40.0,
                                               5e3, 1e9)]
    for p in params:
        want = lambda: [float(xor_f(p, x, y)) for x in axis for y in axis]
        assert _outcome(xor_f_lattice, p, axis) == _outcome(want), p


@pytest.mark.parametrize("grid", [2, 21, 101])
@pytest.mark.parametrize("s", [CopulaParam.zero(), CopulaParam.one(),
                               CopulaParam.infinity()], ids=lambda s: s.kind)
def test_limit_lattices_match_xor_f(s, grid):
    # the limit branch calls _frank_raw once per point, as xor_f does
    axis = grid_axis(0.0, 1.0, grid)
    assert repr(xor_f_lattice(s, axis)) == \
        repr([xor_f(s, x, y) for x in axis for y in axis])


def test_xor_f_lattice_validates_axis():
    with pytest.raises(DomainError):
        xor_f_lattice(CopulaParam.finite(2.0), [0.0, 1.5])
    # inside _unit's window: clamped, as xor_f clamps
    assert xor_f_lattice(CopulaParam.one(), [-1e-13, 1.0 + 1e-13]) == \
        [float(xor_f(CopulaParam.one(), x, y))
         for x in (0.0, 1.0) for y in (0.0, 1.0)]


def test_classify_matches_pointwise_reference_on_every_label():
    fs = lambda s: (lambda x, y: float(xor_f(CopulaParam.finite(s), x, y)))
    cases = [
        (lambda x, y: abs(x - y), 0.05, 21, "F0"),
        (lambda x, y: x + y - 2 * x * y, 0.05, 21, "F1"),
        (lambda x, y: min(x + y, 1.0) - max(x + y - 1.0, 0.0), 0.05, 21,
         "Finf"),
        (lambda x, y: 0.5, 0.05, 21, "ConstHalf"),
        (lambda x, y: 0.0 if (x, y) in ((0.0, 0.0), (1.0, 1.0)) else 1.0,
         0.05, 21, "StepAbs"),
        (fs(3.0), 0.05, 21, "Fs"),
        (fs(0.2), 0.01, 11, "Fs"),
        (fs(40.0), 0.001, 21, "Fs"),
        (fs(1.0 + 5e-7), 0.001, 21, "F1"),
        (lambda x, y: 0.5 + 0.4 * math.sin(9 * x * y), 0.05, 21,
         "Unclassified"),
    ]
    for fn, tol, grid, kind in cases:
        got = classify(fn, tol=tol, grid=grid)
        assert got.kind == kind
        assert _same_label(got, _ref_classify(fn, tol=tol, grid=grid))


@settings(max_examples=12, deadline=None)
@given(st.lists(st.floats(-4.0, 4.0), min_size=9, max_size=9),
       st.sampled_from(["2-2-1/inp-tanh-tanh", "2-2-1/inp-relu-relu",
                        "2-2-1/inp-sigmoid-sigmoid"]),
       st.sampled_from([0.05, 0.1, 0.3]))
def test_classify_matches_pointwise_reference_on_random_nets(w, spec, tol):
    topo = parse_spec(spec)
    net = Network(topo, (Matrix(2, 3, tuple(w[:6])),
                         Matrix(1, 3, tuple(w[6:]))))
    fn = lambda x, y: forward(net, (x, y)).output
    assert _same_label(classify(net, tol=tol), _ref_classify(fn, tol=tol))


@pytest.mark.parametrize("spec, lr, tol", [
    ("2-2-1/inp-tanh-tanh", 0.5, 0.1), ("2-2-1/inp-relu-relu", 0.1, 0.05)])
def test_classify_matches_pointwise_reference_on_trained_nets(spec, lr, tol):
    for seed in range(3):
        net = train(spec, XOR, TrainConfig(seed=seed, learning_rate=lr,
                                           max_iters=4000)).final_net
        assert _same_label(classify(net, tol=tol),
                           _ref_classify(net.predictor(), tol=tol))


# -- skipping the F_s fit: the edges bound every fit ------------------------

# every t the fit can try: the scan, the ends of its golden-section brackets
# and t = 1/2, the One variant
FIT_TS = [k / 50.0 for k in range(1, 50)] + [0.01, 0.99, 0.5]


def _edges(outs, grid):
    """The lattice values at (axis[i], 0) and at (0, axis[i])."""
    return [outs[i * grid] for i in range(grid)], outs[:grid]


def _edge_deviation(outs, grid):
    """D0: the largest deviation from x on the points (x, 0) and (0, x),
    where every F_s the fit tries equals x."""
    axis = trainer._axis(grid)
    return max(max(abs(a - x), abs(b - x))
               for a, b, x in zip(*_edges(outs, grid), axis))


def _assert_exact_edges(lattice, grid):
    want = [x.hex() for x in trainer._axis(grid)]
    for edge in _edges(list(lattice), grid):
        assert [v.hex() for v in edge] == want


@pytest.mark.parametrize("grid", [2, 5, 21])
def test_fs_edges_are_exact_at_every_fit_t(grid):
    axis = trainer._axis(grid)
    for t in FIT_TS:
        _assert_exact_edges(
            xor_f_lattice(CopulaParam.finite(t / (1.0 - t)), axis), grid)
    cands = trainer._candidates(grid)
    for kind in ("F0", "F1", "Finf"):
        points, ref = cands[kind]
        assert points is None
        _assert_exact_edges(ref, grid)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.01, 0.99), st.sampled_from([2, 5, 21]))
def test_fs_edges_are_exact_at_drawn_t(t, grid):
    _assert_exact_edges(xor_f_lattice(CopulaParam.finite(t / (1.0 - t)),
                                      trainer._axis(grid)), grid)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([2, 5, 21]),
       st.one_of(st.floats(0.01, 0.99), st.sampled_from(FIT_TS)))
def test_fs_deviation_is_at_least_the_edge_deviation(data, grid, t):
    # the edges drawn, wide and near [0, 1]; the interior from a seed
    value = st.one_of(st.floats(-0.5, 1.5),
                      st.floats(allow_nan=False, allow_infinity=False))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    outs = [rng.uniform(-0.5, 1.5) for _ in range(grid * grid)]
    for k in sorted({i * grid for i in range(grid)} | set(range(grid))):
        outs[k] = data.draw(value)
    assert _fs_deviation(outs, grid, t) >= _edge_deviation(outs, grid)


@st.composite
def _hostile_lattices(draw):
    """Finite lattices from three families: noise around [0, 1], which the
    edge bound mostly settles; noisy F_s lattices, labelled Fs when the
    noise is small; and lattices exact on the edges with a noisy interior,
    which always run the fit.  At grid 3 the step surface's interior is
    empty; at grid 4 it holds 2 points."""
    grid = draw(st.sampled_from([2, 3, 4, 5, 21]))
    axis = trainer._axis(grid)
    family = draw(st.sampled_from(["noise", "fs", "edges"]))
    amp = draw(st.floats(0.0, 0.3))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if family == "noise":
        return grid, [rng.uniform(-0.2, 1.2) for _ in range(grid * grid)]
    s = draw(st.floats(0.005, 200.0))
    outs = [f + rng.uniform(-amp, amp)
            for f in xor_f_lattice(CopulaParam.finite(s), axis)]
    if family == "edges":
        for i, x in enumerate(axis):
            outs[i * grid] = outs[i] = x
    return grid, outs


@settings(max_examples=120, deadline=None)
@given(_hostile_lattices(), st.sampled_from([0.05, 0.1]))
def test_classify_matches_full_fit_on_drawn_lattices(case, tol):
    grid, outs = case
    lat = trainer._Lattice(grid, outs)
    assert repr(classify(lat, tol=tol, grid=grid)) == \
        repr(classify_reference.classify(lat, tol=tol, grid=grid))


@settings(max_examples=120, deadline=None)
@given(_hostile_lattices(), st.sampled_from([0.0, 0.05, 0.1]))
def test_envelope_check_matches_pointwise_bounds_on_drawn_lattices(case,
                                                                   tol):
    grid, outs = case
    step = grid - 1
    pts = [(i / step, j / step) for i in range(grid) for j in range(grid)]
    inf = CopulaParam.infinity()
    want = all(abs(x - y) - tol <= o <= float(xor_f(inf, x, y)) + tol
               for (x, y), o in zip(pts, outs))
    lat = trainer._Lattice(grid, outs)
    assert envelope_check(lat, tol=tol, grid=grid) is want


@pytest.mark.parametrize("noise", [0.0, 0.2])
def test_classify_matches_full_fit_beyond_the_scan_cache(noise):
    # past _SCAN_CACHE_GRID the scan builds its lattices per fit
    grid = trainer._SCAN_CACHE_GRID + 1
    axis = trainer._axis(grid)
    rng = random.Random(11)
    outs = [f + rng.uniform(-noise, noise)
            for f in xor_f_lattice(CopulaParam.finite(3.0), axis)]
    for i, x in enumerate(axis):
        outs[i * grid] = outs[i] = x        # exact edges: the fit runs
    lat = trainer._Lattice(grid, outs)
    misses = trainer._scan_lattices.cache_info().misses
    label = classify(lat, tol=0.05, grid=grid)
    assert trainer._scan_lattices.cache_info().misses == misses
    assert label.kind == ("Fs" if noise == 0.0 else "Unclassified")
    assert repr(label) == \
        repr(classify_reference.classify(lat, tol=0.05, grid=grid))


@pytest.fixture
def fit_calls(monkeypatch):
    """The arguments of every F_s deviation the classifier's fit computes
    past its scan, which reads lattices cached per grid."""
    calls = []
    real = trainer._fs_deviation
    monkeypatch.setattr(trainer, "_fs_deviation", lambda *args: (
        calls.append(args) or real(*args)))
    return calls


def test_classify_skips_the_fit_only_when_the_edges_settle_it(fit_calls):
    axis = trainer._axis(21)
    fs3 = xor_f_lattice(CopulaParam.finite(3.0), axis)
    rng = random.Random(5)
    noisy = [f + rng.uniform(-0.2, 0.2) for f in fs3]
    far = list(fs3)
    for i, x in enumerate(axis):
        noisy[i * 21] = noisy[i] = x
        far[i * 21] = far[i] = x + 0.3
    # (outputs, label kind, whether the fit runs)
    for outs, kind, fits in ((fs3, "Fs", True), (noisy, "Unclassified", True),
                             (far, "Unclassified", False)):
        fit_calls.clear()
        lat = trainer._Lattice(21, outs)
        got = classify(lat, tol=0.05)
        assert got.kind == kind and bool(fit_calls) == fits
        assert repr(got) == repr(classify_reference.classify(lat, tol=0.05))


@pytest.mark.parametrize("spec, lr", [("2-2-1/inp-tanh-tanh", 0.5),
                                      ("2-2-1/inp-relu-relu", 0.1)])
def test_classify_matches_full_fit_on_sweep_restarts(spec, lr, fit_calls):
    # the restarts of the sweep-tanh and sweep-relu benchmark workloads
    entries = sweep(spec, XOR, TrainConfig(seed=601000, learning_rate=lr), 20)
    fitted = []
    for e in entries:
        for grid in (2, 5, 21):
            lat = trainer._lattice(e.result.final_net, grid)
            for tol in (0.05, 0.1):
                fit_calls.clear()
                got = classify(lat, tol=tol, grid=grid)
                fitted.append(bool(fit_calls))
                assert repr(got) == \
                    repr(classify_reference.classify(lat, tol=tol, grid=grid))
    # the skip is taken; the fit is pinned by the drawn lattices above
    assert not all(fitted)


# -- sweeps ------------------------------------------------------------------

def test_sweep_seed_sequence_and_histogram():
    cfg = TrainConfig(seed=10, learning_rate=0.5, max_iters=1500)
    entries = sweep("2-2-1/inp-tanh-tanh", XOR, cfg, 5)
    assert [e.seed for e in entries] == [10, 11, 12, 13, 14]
    hist = label_histogram(entries)
    assert sum(hist.values()) == sum(1 for e in entries
                                     if e.result.converged)
    full = label_histogram(entries, converged_only=False)
    assert sum(full.values()) == 5
    for e in entries:
        if e.result.converged:
            assert isinstance(e.envelope_ok, bool)
        else:
            assert e.envelope_ok is None


def test_sweep_absorbs_divergence():
    cfg = TrainConfig(seed=0, learning_rate=100.0, mode="full_batch",
                      max_iters=200)
    entries = sweep("2-2-1/inp-id-id", XOR, cfg, 3)
    assert len(entries) == 3
    for e in entries:
        assert e.result.diverged
        assert not e.result.converged
        assert e.label.kind == "Unclassified"
        assert e.envelope_ok is None


def test_sweep_labels_match_classify_and_envelope_check():
    cfg = TrainConfig(seed=3, learning_rate=0.5, max_iters=2000)
    for e in sweep("2-2-1/inp-tanh-tanh", XOR, cfg, 3, classify_tol=0.1):
        net = e.result.final_net
        assert _same_label(e.label, classify(net, tol=0.1))
        if e.result.converged:
            assert e.envelope_ok is envelope_check(net, tol=0.1)


def test_sweep_evaluates_its_lattice_in_one_pass(monkeypatch):
    # one generated lattice pass, not one network.forward call per point
    lattice_calls, forward_calls = [], []
    real_lattice, real_forward = trainer.forward_lattice, network.forward
    monkeypatch.setattr(trainer, "forward_lattice", lambda *args: (
        lattice_calls.append(args) or real_lattice(*args)))
    monkeypatch.setattr(network, "forward", lambda *args: (
        forward_calls.append(args) or real_forward(*args)))
    entry, = sweep("2-2-1/inp-tanh-tanh", XOR,
                   TrainConfig(seed=3, learning_rate=0.5), 1,
                   classify_tol=0.1)
    assert entry.result.converged
    assert len(lattice_calls) == 1 and forward_calls == []


def test_sweep_validation():
    with pytest.raises(DomainError):
        sweep("2-2-1/inp-tanh-tanh", XOR, TrainConfig(seed=0), 0)


@pytest.mark.parametrize("kwargs", [
    {"classify_grid": 1}, {"classify_grid": 0}, {"classify_tol": math.nan},
    {"classify_tol": -0.5}, {"classify_grid": 1002}])
def test_sweep_checks_classification_settings_before_training(kwargs,
                                                              monkeypatch):
    calls = []
    real = kernels.train_run
    monkeypatch.setattr(kernels, "train_run", lambda *args: (
        calls.append(args) or real(*args)))
    # a first restart that converges would otherwise train in full
    cfg = TrainConfig(seed=3, learning_rate=0.5)
    with pytest.raises(DomainError):
        sweep("2-2-1/inp-tanh-tanh", XOR, cfg, 2, **kwargs)
    assert calls == []


def test_classification_tolerance_is_a_non_negative_bound():
    relu = train("2-2-1/inp-relu-relu", XOR, TrainConfig(seed=1)).final_net
    assert classify(relu) == FunctionLabel("Finf", 0.025811366945231035)
    for tol in (math.nan, -0.5):
        for check in (classify, envelope_check):
            with pytest.raises(DomainError, match="tolerance"):
                check(relu, tol=tol)
    # 0 asks for an exact fit; inf takes the nearest fixed candidate
    assert classify(relu, tol=0.0).kind == "Unclassified"
    assert classify(relu, tol=math.inf) == classify(relu)
    assert envelope_check(lambda x, y: 1.2, tol=math.inf)


def test_run_metadata_document():
    cfg = TrainConfig(seed=8, max_iters=50)
    result = train("2-2-1/inp-tanh-tanh", XOR, cfg)
    doc = run_metadata("2-2-1/inp-tanh-tanh", cfg, result,
                       FunctionLabel("F0", 0.01))
    assert doc["spec"] == "2-2-1/inp-tanh-tanh"
    assert doc["seed"] == 8
    assert doc["iterations"] == result.iterations
    assert doc["label"] == "F0"
    assert doc["max_deviation"] == 0.01
    assert set(doc) >= {"learning_rate", "max_iters", "tol", "mode",
                        "init_range", "final_sse", "converged", "diverged"}
