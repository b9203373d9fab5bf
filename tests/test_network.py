"""Topology parsing, forward passes, gradients, collapse, model files."""

import json
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import loop_kernels
from xorlab._pycore import _ACT, _SLOPE, _build
from xorlab.errors import (ArityError, DomainError, ModelFormatError,
                           NotLinearError, ShapeError, SpecSyntaxError)
from xorlab.linalg import Matrix
from xorlab.network import (ACTIVATIONS, RELU, SIGMOID, Activation, Network,
                            Topology, collapse_linear, count_weights,
                            forward, forward_lattice, gradient, load_model,
                            parse_sizes, parse_spec, save_model)


def _net(spec, *layers):
    topo = parse_spec(spec)
    return Network(topo, tuple(Matrix.from_rows(ws) for ws in layers))


# -- parsing ---------------------------------------------------------------

def test_parse_sizes():
    assert parse_sizes("2-9-1") == (2, 9, 1)
    for bad in ("2", "2--1", "2-0-1", "2-a-1", ""):
        with pytest.raises(SpecSyntaxError):
            parse_sizes(bad)


def test_parse_spec():
    topo = parse_spec("2-2-1/inp-tanh-id")
    assert topo.layer_sizes == (2, 2, 1)
    assert tuple(a.tag for a in topo.activations) == ("Tanh", "Id")
    assert topo.render() == "2-2-1/inp-tanh-id"


def test_parse_spec_errors():
    with pytest.raises(SpecSyntaxError):
        parse_spec("2-2-1")                      # activations required here
    with pytest.raises(SpecSyntaxError):
        parse_spec("2-2-1/tanh-tanh")            # must start with inp
    with pytest.raises(SpecSyntaxError):
        parse_spec("2-2-1/inp-tanh-warp")
    with pytest.raises(ArityError):
        parse_spec("2-2-1/inp-tanh")


def _apply(code):
    """The activation of code as the generated kernels write it."""
    return _build("apply", ["def apply(z):",
                            "    return " + _ACT[code].format(z="z")],
                  "<test apply>")


def _slope(code):
    """The slope of code as the generated kernels write it."""
    return _build("slope", ["def slope(z, a):", "    return "
                            + _SLOPE[code].format(z="z", a="a")],
                  "<test slope>")


def test_activation_registry():
    assert set(ACTIVATIONS) == {"id", "tanh", "sigmoid", "relu"}
    assert repr(ACTIVATIONS["tanh"]) == "Activation(Tanh)"
    assert ACTIVATIONS["relu"] == Activation("Relu", 3)
    assert [a.code for a in ACTIVATIONS.values()] == [0, 1, 2, 3]
    relu, sigmoid = _apply(RELU.code), _apply(SIGMOID.code)
    assert relu(-2.0) == 0.0
    assert relu(2.0) == 2.0
    assert sigmoid(0.0) == 0.5


_BY_CODE = sorted(ACTIVATIONS.values(), key=lambda a: a.code)


def test_activations_match_loop_reference():
    zs = [0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 20.0, -20.0, 710.0, -710.0,
          math.inf, -math.inf, math.nan]
    for act in _BY_CODE:
        apply, slope = _apply(act.code), _slope(act.code)
        for z in zs:
            assert (repr(apply(z))
                    == repr(loop_kernels._act(act.code, z)))
            for a in zs + [apply(z)]:
                assert (repr(slope(z, a))
                        == repr(loop_kernels._slope(act.code, z, a)))


def test_count_weights_spec_values():
    assert count_weights("2-9-1") == 37
    assert count_weights("2-4-4-1") == 37
    assert count_weights((2, 2, 1)) == 9
    assert count_weights(parse_spec("2-2-1/inp-tanh-tanh")) == 9


def test_count_weights_closed_forms():
    for n in range(1, 11):
        assert count_weights((2, n, 1)) == 4 * n + 1
    for p in range(1, 11):
        for q in range(1, 11):
            assert count_weights((2, p, q, 1)) == p * q + 3 * p + 2 * q + 1


# -- forward ---------------------------------------------------------------

# the worked linear example: 2-2-1, all id
_LIN_W1 = [[0.1, -0.1, 0.2], [-0.2, 0.3, 0.1]]
_LIN_W2 = [[-0.4, -0.2, 0.3]]


def test_forward_linear_hand_value():
    net = _net("2-2-1/inp-id-id", _LIN_W1, _LIN_W2)
    trace = forward(net, (0.0, 1.0))
    assert trace.post[0] == (0.1, 0.4)
    assert abs(trace.output - 0.18) < 1e-15
    assert net.output((0.0, 1.0)) == trace.output


def test_forward_trace_shapes():
    net = _net("2-2-1/inp-tanh-tanh",
               [[1.0, 1.0, 0.0], [1.0, 1.0, -1.0]], [[1.0, -2.0, 0.0]])
    trace = forward(net, (0.5, 0.5))
    assert len(trace.pre) == 2 and len(trace.post) == 2
    assert trace.outputs == trace.post[-1]
    with pytest.raises(ShapeError):
        forward(net, (0.5,))


def test_scalar_output_of_a_two_output_net_is_refused():
    trace = forward(_net("2-2/inp-id", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
                    (0.25, 0.5))
    assert trace.outputs == (0.25, 0.5)
    with pytest.raises(ShapeError, match="from a 2-wide final layer"):
        trace.output


def test_topology_refuses_a_malformed_shape():
    tanh = ACTIVATIONS["tanh"]
    with pytest.raises(SpecSyntaxError, match="at least input and output"):
        Topology((2,), ())
    with pytest.raises(SpecSyntaxError, match="must be positive"):
        Topology((2, 0, 1), (tanh, tanh))
    with pytest.raises(ArityError, match="3 layers need 2 activations, got 1"):
        Topology((2, 2, 1), (tanh,))


def test_network_weight_shape_validation():
    topo = parse_spec("2-2-1/inp-id-id")
    with pytest.raises(ShapeError):
        Network(topo, (Matrix.from_rows(_LIN_W1),
                       Matrix.from_rows([[1.0, 2.0]])))


def test_predictor_closure():
    net = _net("2-2-1/inp-id-id", _LIN_W1, _LIN_W2)
    f = net.predictor()
    assert f(0.0, 1.0) == net.output((0.0, 1.0))


# -- gradient --------------------------------------------------------------

def test_gradient_single_linear_unit_closed_form():
    """For one id unit, dE/dw_j = 2 (out - t) x_j with bias x = 1."""
    net = _net("2-1/inp-id", [[0.3, -0.4, 0.25]])
    x1, x2, t = 0.7, 0.2, 1.0
    out = net.output((x1, x2))
    g = gradient(net, (x1, x2), t)[0]
    assert g.at(0, 0) == pytest.approx(2 * (out - t) * x1, abs=1e-15)
    assert g.at(0, 1) == pytest.approx(2 * (out - t) * x2, abs=1e-15)
    assert g.at(0, 2) == pytest.approx(2 * (out - t), abs=1e-15)


def _numeric_gradient(net, inputs, target, h=1e-6):
    grads = []
    for l, w in enumerate(net.weights):
        rows = []
        for i in range(w.rows):
            row = []
            for j in range(w.cols):
                def bumped(eps):
                    mats = [m.to_rows() for m in net.weights]
                    mats[l][i][j] += eps
                    pert = Network(net.topology,
                                   tuple(Matrix.from_rows(m) for m in mats))
                    d = pert.output(inputs) - target
                    return d * d
                row.append((bumped(h) - bumped(-h)) / (2 * h))
            rows.append(row)
        grads.append(rows)
    return grads


def test_gradient_matches_finite_differences_tanh():
    rng = random.Random(11)
    for _ in range(5):
        net = _net("2-2-1/inp-tanh-sigmoid",
                   [[rng.uniform(-1, 1) for _ in range(3)] for _ in range(2)],
                   [[rng.uniform(-1, 1) for _ in range(3)]])
        inputs = (rng.random(), rng.random())
        target = rng.random()
        analytic = gradient(net, inputs, target)
        numeric = _numeric_gradient(net, inputs, target)
        for ga, gn in zip(analytic, numeric):
            for i in range(ga.rows):
                for j in range(ga.cols):
                    assert ga.at(i, j) == pytest.approx(gn[i][j], abs=1e-7)


# -- forward and gradient against the loop reference -------------------------

def _pick(special, lo, hi):
    return st.one_of(st.sampled_from(special), st.floats(lo, hi))


@st.composite
def _cases(draw, out_widths, in_widths=st.integers(1, 5)):
    """A network of depth 1-3, widths 1-5 and any activations, with
    weights, inputs and a target that reach the non-finite range."""
    depth = draw(st.integers(1, 3))
    sizes = ([draw(in_widths)]
             + [draw(st.integers(1, 5)) for _ in range(depth - 1)]
             + [draw(out_widths)])
    codes = [draw(st.integers(0, 3)) for _ in range(depth)]
    w = draw(st.lists(_pick([0.0, -0.0, 1e200, -1e200], -3.0, 3.0),
                      min_size=count_weights(sizes),
                      max_size=count_weights(sizes)))
    x = draw(st.lists(_pick([-0.0, 1e3, -1e3], -2.0, 2.0),
                      min_size=sizes[0], max_size=sizes[0]))
    t = draw(_pick([1e300, -0.0], -2.0, 2.0))
    topo = Topology(tuple(sizes), tuple(_BY_CODE[c] for c in codes))
    return sizes, codes, w, x, t, Network.from_flat(topo, w)


@given(_cases(st.integers(1, 5)))
@settings(max_examples=200, deadline=None)
def test_forward_matches_loop_reference(case):
    sizes, codes, w, x, _, net = case
    pre = [[0.0] * n for n in sizes[1:]]
    post = [[0.0] * n for n in sizes[1:]]
    loop_kernels._forward(sizes, codes, w, loop_kernels._offsets(sizes), x,
                          pre, post)
    trace = forward(net, x)
    assert repr(trace.pre) == repr(tuple(map(tuple, pre)))
    assert repr(trace.post) == repr(tuple(map(tuple, post)))


def _outcome(fn):
    try:
        return repr(fn())
    except DomainError as exc:      # a non-finite partial
        return f"DomainError: {exc}"


@given(_cases(st.just(1)))
@settings(max_examples=200, deadline=None)
def test_gradient_matches_loop_reference(case):
    sizes, codes, w, x, t, net = case
    assert (_outcome(lambda: gradient(net, x, t))
            == _outcome(lambda: loop_kernels.gradient(sizes, codes, w, x, t)))


@given(_cases(st.just(1), in_widths=st.just(2)), st.sampled_from([2, 11, 21]))
@example((_net("2-1-1/inp-id-id", [[1e200, 1e200, 0.0]], [[1e200, 0.0]]),),
         2)                                     # inf off the origin
@example((_net("2-2-1/inp-id-id", [[1e300, 0.0, 0.0], [1e300, 0.0, 0.0]],
               [[1e300, -1e300, 0.0]]),), 2)    # inf - inf: NaN at x = 1
@settings(max_examples=200, deadline=None)
def test_forward_lattice_matches_pointwise_forward(case, grid):
    *_, net = case
    axis = [i / (grid - 1) for i in range(grid)]
    want = [forward(net, (x, y)).output for x in axis for y in axis]
    assert repr(forward_lattice(net, axis)) == repr(want)


def test_forward_lattice_needs_two_inputs_and_one_output():
    for net in (_net("3-1/inp-id", [[0.0] * 4]),
                _net("2-2/inp-id", [[0.0] * 3, [0.0] * 3])):
        with pytest.raises(ShapeError):
            forward_lattice(net, [0.0, 1.0])


def test_gradient_requires_single_output():
    net = _net("2-2/inp-id", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(ShapeError):
        gradient(net, (0.1, 0.2), 0.5)


# -- collapse --------------------------------------------------------------

def test_collapse_hand_value():
    net = _net("2-2-1/inp-id-id", _LIN_W1, _LIN_W2)
    single = collapse_linear(net)
    assert single.topology.layer_sizes == (2, 1)
    # w = (A2 A1, A2 b1 + b2)
    w = single.weights[0]
    assert w.at(0, 0) == pytest.approx(-0.4 * 0.1 + -0.2 * -0.2, abs=1e-15)
    assert w.at(0, 1) == pytest.approx(-0.4 * -0.1 + -0.2 * 0.3, abs=1e-15)
    assert w.at(0, 2) == pytest.approx(
        -0.4 * 0.2 + -0.2 * 0.1 + 0.3, abs=1e-15)


def test_collapse_preserves_outputs():
    rng = random.Random(3)
    topo = parse_spec("2-3-2-1/inp-id-id-id")
    mats = tuple(Matrix.from_rows(
        [[rng.uniform(-1, 1) for _ in range(c)] for _ in range(r)])
        for r, c in topo.weight_shapes())
    net = Network(topo, mats)
    single = collapse_linear(net)
    for _ in range(20):
        ins = (rng.random(), rng.random())
        assert single.output(ins) == pytest.approx(net.output(ins),
                                                   abs=1e-12)


def test_collapse_rejects_nonlinear():
    net = _net("2-2-1/inp-tanh-id",
               [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [[1.0, 1.0, 0.0]])
    with pytest.raises(NotLinearError):
        collapse_linear(net)


# -- model documents -------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    net = _net("2-2-1/inp-tanh-tanh",
               [[2.32, 2.331, -0.85], [1.743, 1.747, -2.653]],
               [[2.68, -2.704, -0.826]])
    path = tmp_path / "model.json"
    save_model(net, path, seed=42)
    back = load_model(path)
    assert back.topology.render() == net.topology.render()
    assert all(a.entries == b.entries
               for a, b in zip(back.weights, net.weights))
    doc = json.loads(path.read_text())
    assert doc["seed"] == 42


def test_save_is_deterministic(tmp_path):
    net = _net("2-2-1/inp-id-id", _LIN_W1, _LIN_W2)
    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    save_model(net, p1)
    save_model(net, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_model_takes_integral_float_dimensions(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"spec": "2-1/inp-id", "weights": [
        {"rows": 1.0, "cols": 3.0, "data": [0.5, 0.25, 1]}]}))
    assert load_model(path).weights[0].shape == (1, 3)


def test_load_model_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ModelFormatError):
        load_model(bad)
    wrong = tmp_path / "wrong.json"
    for doc in ({"spec": "2-2-1/inp-id-id", "weights": [[[1.0]]]},
                {"spec": "2-2-1/inp-tanh-tanh", "weights": 5},
                {"spec": 5, "weights": []},
                {"spec": "2-1/inp-id", "weights": [
                    {"rows": 1, "cols": 3, "data": [10**400, 0, 0]}]},
                # int() would truncate these to a 1x3 matrix
                {"spec": "2-1/inp-id", "weights": [
                    {"rows": 1.9, "cols": 3.2, "data": [0.5, 0.25, 1]}]},
                {"spec": "2-1/inp-id", "weights": [
                    {"rows": True, "cols": 3, "data": [0.5, 0.25, 1]}]},
                {"spec": "2-1/inp-id", "weights": [
                    {"rows": 1, "cols": 3.5, "data": [0.5, 0.25, 1]}]},
                # float() and int() would take strings and booleans
                {"spec": "2-1/inp-id", "weights": [
                    {"rows": "1", "cols": 3, "data": ["0.5", True, "1e3"]}]},
                {"spec": "2-1/inp-id", "weights": [
                    {"rows": 1, "cols": "3", "data": [0.5, 0.25, 1]}]},
                {"spec": "2-1/inp-id", "weights": [
                    {"rows": 1, "cols": 3, "data": [0.5, "0.25", 1]}]},
                {"spec": "2-1/inp-id", "weights": [
                    {"rows": 1, "cols": 3, "data": [0.5, False, 1]}]},
                {"spec": "2-1/inp-id", "weights": [
                    {"rows": 1, "cols": 3, "data": [0.5, None, 1]}]},
                {"spec": "2-1/inp-id", "weights": [
                    {"rows": 1, "cols": 3, "data": "abc"}]}):
        wrong.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError):
            load_model(wrong)
    wrong.write_bytes(b"\xff\xfe")
    with pytest.raises(ModelFormatError):
        load_model(wrong)
    wrong.write_text(json.dumps({"spec": "2-1/inp-id", "weights": [
        {"rows": 1, "cols": 3, "data": [0.5, 0.25]}]}))
    with pytest.raises(ModelFormatError,
                       match=r"weights\[0\] says 1x3 but carries 2 values"):
        load_model(wrong)
