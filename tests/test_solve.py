"""solve_s against its 200-step reference, and the length of its bisection.

solve_s stops bisecting once a step cannot move the bracket; the reference
in solve_reference.py runs every step.  Each comparison is of repr of the
returned CopulaParam, or of the type and message of the raised error, on
round trips p = A_s(x, y) for s log-uniform on [1e-8, 1e8], on p at and
around each Frechet bound, on the One window p = x * y +- 1e-8, and on the
edge grid of test_hostile_input.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import solve_reference
from test_hostile_input import _edge_points
from xorlab import copula
from xorlab.copula import SOLVE_TOL, CopulaParam, frank_and, solve_s

unit = st.floats(0.0, 1.0)
log_s = st.floats(math.log(1e-8), math.log(1e8))


def _outcome(solve, x, y, p):
    try:
        return repr(solve(x, y, p))
    except Exception as err:        # compared, not swallowed
        return f"{type(err).__name__}: {err}"


def _check(x, y, p):
    assert _outcome(solve_s, x, y, p) == \
        _outcome(solve_reference.solve_s, x, y, p), (x, y, p)


def _round_trip(x, y, s):
    return float(frank_and(CopulaParam.finite(s), x, y))


@settings(max_examples=400, deadline=None)
@given(unit, unit, log_s)
def test_round_trips_match_reference(x, y, ln_s):
    _check(x, y, _round_trip(x, y, math.exp(ln_s)))


@settings(max_examples=200, deadline=None)
@given(unit, unit)
def test_frechet_bounds_and_one_window_match_reference(x, y):
    lower, upper = max(x + y - 1.0, 0.0), min(x, y)
    for bound in (lower, upper):
        for k in (-2, -1, 0, 1, 2):
            _check(x, y, bound + k * SOLVE_TOL)
    for d in (-1e-8, 0.0, 1e-8):
        _check(x, y, x * y + d)


def test_seeded_draws_match_reference():
    rng = random.Random(20)
    for _ in range(2000):
        x, y = rng.random(), rng.random()
        lower, upper = max(x + y - 1.0, 0.0), min(x, y)
        r = rng.random()
        if r < 0.5:
            p = _round_trip(x, y, math.exp(rng.uniform(math.log(1e-8),
                                                       math.log(1e8))))
        elif r < 0.8:
            p = rng.uniform(lower, upper)
        else:
            p = x * y + rng.uniform(-1e-7, 1e-7)
        _check(x, y, p)


def test_edge_grid_matches_reference():
    for x, y, p in _edge_points():
        _check(x, y, p)


@pytest.mark.parametrize("x, y, p", [
    (0.5, 0.5, 0.3),
    (0.3, 0.6, _round_trip(0.3, 0.6, 1e-8)),
    (0.3, 0.6, _round_trip(0.3, 0.6, 1e8)),
], ids=["pinned", "s=1e-8", "s=1e8"])
def test_bisection_stops_at_its_fixed_point(monkeypatch, x, y, p):
    # the reference evaluates A_s 202 times: both Frechet bounds and
    # 200 bisection steps
    calls = []
    raw = copula._frank_raw

    def counted(s, xv, yv):
        calls.append(s)
        return raw(s, xv, yv)

    monkeypatch.setattr(copula, "_frank_raw", counted)
    param = solve_s(x, y, p)
    assert param.kind == "finite"
    assert len(calls) <= 100
    monkeypatch.undo()
    assert repr(param) == repr(solve_reference.solve_s(x, y, p))
