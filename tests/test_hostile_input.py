"""Hostile input: drawn text through the parsers, drawn files through the
loaders, solve_s at the edges of its domain, drawn classification
tolerances, and malformed numbers on the command line.  Each may return
or raise an XorlabError subclass (the command line prints it and exits
1); any other exception fails the test."""

import json
import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from xorlab.cli import main
from xorlab.copula import SOLVE_TOL, UNIT_EPS, CopulaParam, solve_s
from xorlab.datasets import builtin, load_csv
from xorlab.errors import DomainError, XorlabError
from xorlab.network import load_model, parse_spec
from xorlab.problogic import parse_expr
from xorlab.surface import parse_coord
from xorlab.trainer import (FunctionLabel, TrainConfig, classify,
                            envelope_check, sweep)

# pieces of every grammar, so that drawn text gets past the first token
_PIECES = st.sampled_from([
    "2", "-", "/", "inp", "tanh", "relu", "sigmoid", "id", "w", "_", "0",
    "1", "9" * 25, ".", "e", "+", "(", ")", "not ", " and ", " or ",
    " xor ", "x1", "inf", "nan", "1e400", " ", "\t", "\x00", "é",
    "\ud800"])
_TEXT = st.one_of(st.text(max_size=40),
                  st.lists(_PIECES, max_size=16).map("".join))
_FILES = settings(max_examples=150, deadline=None,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])


@settings(max_examples=400, deadline=None)
@given(_TEXT)
@example("(" * 400 + "a" + ")" * 400)
@example("not " * 400 + "a")
@example(" xor ".join(["a"] * 400))
@example("2-" * 400 + "1/" + "inp-" + "id-" * 400 + "id")
def test_parsers_raise_only_xorlab_errors(text):
    for parse in (parse_spec, parse_coord, parse_expr, CopulaParam.parse):
        try:
            parse(text)
        except XorlabError:
            pass


def _csv_text():
    cell = st.sampled_from(["x", "y", "target", "target_a", "0.5", "1", "0",
                            "2", "-0", "nan", "inf", "", '"', '""', " ",
                            "\n", "é"])
    return st.lists(st.lists(cell, max_size=4).map(",".join),
                    max_size=5).map("\n".join)


@_FILES
@given(st.one_of(_csv_text().map(str.encode), st.binary(max_size=60)))
@example(b"x,target\n\xff\xfe,1\n")
@example(b'x,target\n"' + b"a" * 200_000 + b'",1\n')
@example(b"x,target\n0.5\x00,1\n")
def test_load_csv_raises_only_xorlab_errors(tmp_path, content):
    path = tmp_path / "data.csv"
    path.write_bytes(content)
    try:
        load_csv(path)
    except XorlabError:
        pass


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 2**70) | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12)
_DIMENSION = st.one_of(st.integers(-2, 4), st.floats(-2.0, 4.0), _JSON)


@st.composite
def _model_docs(draw):
    entry = st.fixed_dictionaries({
        "rows": _DIMENSION, "cols": _DIMENSION,
        "data": st.one_of(st.lists(st.one_of(st.floats(), _JSON),
                                   max_size=9), _JSON)})
    doc = {"spec": draw(st.one_of(
               st.sampled_from(["2-2-1/inp-tanh-tanh", "2-1/inp-id"]),
               _TEXT)),
           "weights": draw(st.one_of(st.lists(entry, max_size=3), _JSON))}
    return json.dumps(draw(st.one_of(st.just(doc), _JSON))).encode()


@_FILES
@given(st.one_of(_model_docs(), st.binary(max_size=60)))
@example(b"[" * 100_000 + b"]" * 100_000)
@example(b'{"spec": "2-1/inp-id", "weights": [{"rows": -1, "cols": -1, '
         b'"data": [1.0]}]}')
@example(b'{"spec": "2-1/inp-id", "weights": [{"rows": 1, "cols": 3, '
         b'"data": [NaN, Infinity, 1e400]}]}')
def test_load_model_raises_only_xorlab_errors(tmp_path, content):
    path = tmp_path / "model.json"
    path.write_bytes(content)
    try:
        load_model(path)
    except XorlabError:
        pass


# the ends of [0, 1], the subnormals, the clamp window around it and the
# points just past it
_EDGES = (0.0, 1.0, 0.5, 5e-324, 1e-300, 1e-9, 1.0 - 1e-16, 1.0 - 1e-9,
          -UNIT_EPS, 1.0 + UNIT_EPS, -2 * UNIT_EPS, 1.0 + 2 * UNIT_EPS,
          -math.inf, math.inf)


def test_solve_s_at_edge_points():
    for x in _EDGES:
        for y in _EDGES:
            lower = max(x + y - 1.0, 0.0)
            upper = min(x, y)
            for p in (lower, upper, 0.5 * (lower + upper),
                      lower - SOLVE_TOL, upper + SOLVE_TOL,
                      lower - 2 * SOLVE_TOL, upper + 2 * SOLVE_TOL,
                      *_EDGES):
                try:
                    param = solve_s(x, y, p)
                except XorlabError:
                    continue
                assert isinstance(param, CopulaParam), (x, y, p)


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[st.one_of(st.sampled_from(_EDGES),
                             st.floats(-1e-9, 1.0 + 1e-9))] * 3))
def test_solve_s_on_drawn_points(point):
    try:
        param = solve_s(*point)
    except XorlabError:
        return
    assert isinstance(param, CopulaParam), point


@settings(max_examples=200, deadline=None)
@given(st.floats())
@example(math.nan)
@example(-0.0)
@example(-5e-324)
@example(math.inf)
def test_classification_tolerance_on_drawn_floats(tol):
    # st.floats draws NaN, +-inf, negatives, signed zeros and subnormals;
    # a tolerance is taken exactly when it is 0 or more
    fn = lambda x, y: abs(x - y)
    if not tol >= 0.0:
        for check in (classify, envelope_check):
            with pytest.raises(DomainError):
                check(fn, tol=tol, grid=5)
        return
    assert classify(fn, tol=tol, grid=5) == FunctionLabel("F0", 0.0)
    assert envelope_check(fn, tol=tol, grid=5) is True


@settings(max_examples=40, deadline=None)
@given(st.floats())
@example(math.nan)
@example(-1.0)
def test_sweep_classification_tolerance_on_drawn_floats(tol):
    run = lambda: sweep("2-2-1/inp-tanh-tanh", builtin("boolean_xor"),
                        TrainConfig(seed=0, max_iters=1), 1,
                        classify_tol=tol, classify_grid=3)
    if not tol >= 0.0:
        with pytest.raises(DomainError):
            run()
        return
    entry, = run()
    assert isinstance(entry.label, FunctionLabel)


@pytest.mark.parametrize("text", ["a,b", "", "nan,1", "inf,1", "0.5,-inf"])
def test_net_forward_input_that_is_not_numbers(tmp_path, capsys, text):
    model = tmp_path / "id.json"
    model.write_text(json.dumps(
        {"spec": "2-1/inp-id",
         "weights": [{"rows": 1, "cols": 3, "data": [0.5, 0.25, 1]}]}))
    code = main(["net", "forward", "--model", str(model), "--input", text])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    # a non-finite input would turn into NaN inside the net
    what = "numbers" if text in ("a,b", "") else "finite numbers"
    assert err == (f"error: input {text!r} is not a comma-separated list "
                   f"of {what}\n")
