"""solve_s against its 200-step reference, on both backends, and the
length of its bisection.

solve_s stops bisecting once a step cannot move the bracket; the reference
in solve_reference.py runs every step.  The bisection is a kernel,
solve_t, and each comparison runs solve_s on every backend's: the Python
one, and the compiled one when `cc` is on PATH.  Each compares repr of the
returned CopulaParam, or the type and message of the raised error, on
round trips p = A_s(x, y) for s log-uniform on [1e-8, 1e8], on p at and
around each Frechet bound, on the One window p = x * y +- 1e-8, and on the
edge grid of test_hostile_input.  The two kernels are also compared
directly, on p whose root lies beyond the dispatch thresholds too.
"""

import contextlib
import math
import random
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import solve_reference
from test_hostile_input import _edge_points
from xorlab import _pycore, copula, kernels
from xorlab.copula import (INF_DISPATCH, SOLVE_TOL, ZERO_DISPATCH,
                           CopulaParam, frank_and, solve_s)

unit = st.floats(0.0, 1.0)
log_s = st.floats(math.log(1e-8), math.log(1e8))


@pytest.fixture(scope="session")
def solve_ts(request):
    """Each backend's solve_t by name; the compiled one when cc is on
    PATH (the ckern fixture)."""
    kerns = {"python": _pycore.solve_t}
    if shutil.which("cc") is not None:
        kerns["c"] = request.getfixturevalue("ckern").solve_t
    return kerns


@contextlib.contextmanager
def _solve_on(solve_t):
    """solve_s on one backend's solve_t; yields the MonkeyPatch."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "solve_t", solve_t)
        yield mp


def _outcome(solve, x, y, p):
    try:
        return repr(solve(x, y, p))
    except Exception as err:        # compared, not swallowed
        return f"{type(err).__name__}: {err}"


def _check(solve_ts, x, y, p):
    want = _outcome(solve_reference.solve_s, x, y, p)
    for name, solve_t in solve_ts.items():
        with _solve_on(solve_t):
            assert _outcome(solve_s, x, y, p) == want, (name, x, y, p)


def _round_trip(x, y, s):
    return float(frank_and(CopulaParam.finite(s), x, y))


@settings(max_examples=400, deadline=None)
@given(unit, unit, log_s)
def test_round_trips_match_reference(solve_ts, x, y, ln_s):
    _check(solve_ts, x, y, _round_trip(x, y, math.exp(ln_s)))


@settings(max_examples=200, deadline=None)
@given(unit, unit)
def test_frechet_bounds_and_one_window_match_reference(solve_ts, x, y):
    lower, upper = max(x + y - 1.0, 0.0), min(x, y)
    for bound in (lower, upper):
        for k in (-2, -1, 0, 1, 2):
            _check(solve_ts, x, y, bound + k * SOLVE_TOL)
    for d in (-1e-8, 0.0, 1e-8):
        _check(solve_ts, x, y, x * y + d)


def test_seeded_draws_match_reference(solve_ts):
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
        _check(solve_ts, x, y, p)


def test_edge_grid_matches_reference(solve_ts):
    for x, y, p in _edge_points():
        _check(solve_ts, x, y, p)


@pytest.mark.parametrize("x, y, p", [
    (0.5, 0.5, 0.3),
    (0.3, 0.6, _round_trip(0.3, 0.6, 1e-8)),
    (0.3, 0.6, _round_trip(0.3, 0.6, 1e8)),
], ids=["pinned", "s=1e-8", "s=1e8"])
def test_bisection_stops_at_its_fixed_point(solve_ts, x, y, p):
    # the reference takes 200 bisection steps.  The Python kernel's steps
    # are counted through the _frank_raw it calls; the compiled kernel
    # calls no Python, and must return the reference's parameter all the
    # same
    want = repr(solve_reference.solve_s(x, y, p))
    raw = _pycore._frank_raw
    for name, solve_t in solve_ts.items():
        calls = []

        def counted(s, xv, yv):
            calls.append(s)
            return raw(s, xv, yv)

        with _solve_on(solve_t) as mp:
            mp.setattr(_pycore, "_frank_raw", counted)
            param = solve_s(x, y, p)
        assert param.kind == "finite"
        assert repr(param) == want
        assert (0 < len(calls) <= 100) if name == "python" else not calls


def _closed_form(s, x, y):
    """A_s(x, y) in closed form, at any s whose expm1(ln s) is not -1."""
    L = math.log(s)
    return math.log1p(math.expm1(x * L) * math.expm1(y * L)
                      / math.expm1(L)) / L


def _kernel_draws(rng, n):
    """(x, y, p) in solve_t's domain (probabilities, p at least the lower
    Frechet bound): x or y at 0, 1 or next to them, p at and around each
    bound, and round trips through the closed form for s = e^+-40, so that
    many roots lie beyond the dispatch thresholds."""
    edges = (0.0, 1.0, 5e-324, 1e-12, 1.0 - 1e-12, 1.0 - 2.0 ** -53)
    for _ in range(n):
        x, y = (rng.choice(edges) if rng.random() < 0.2 else rng.random()
                for _ in range(2))
        lower, upper = max(x + y - 1.0, 0.0), min(x, y)
        r = rng.random()
        if r < 0.4:
            try:
                p = _closed_form(math.exp(rng.uniform(-40.0, 40.0)), x, y)
            except ValueError:      # expm1(ln s) rounded to -1
                p = upper
        elif r < 0.7:
            p = rng.choice((lower, upper)) + rng.randint(-3, 3) * SOLVE_TOL
        elif r < 0.8:
            p = x * y + rng.uniform(-1e-7, 1e-7)
        else:
            p = rng.uniform(lower, 1.0)
        yield x, y, min(1.0, max(lower, p))


def test_compiled_solve_t_matches_python(ckern):
    rng = random.Random(24)
    beyond = 0
    for x, y, p in _kernel_draws(rng, 20000):
        want = _pycore.solve_t(x, y, p, copula._BISECT_ITERS)
        assert repr(ckern.solve_t(x, y, p, copula._BISECT_ITERS)) == \
            repr(want), (x, y, p)
        s = want / (1.0 - want)
        beyond += not ZERO_DISPATCH <= s <= INF_DISPATCH
    assert beyond > 1000
    # the step limit is passed as a C int, and checked as one
    for iters in (0, 1, 7, 2 ** 31 - 1):
        assert repr(ckern.solve_t(0.3, 0.6, 0.1, iters)) == \
            repr(_pycore.solve_t(0.3, 0.6, 0.1, iters))
    with pytest.raises(OverflowError):
        ckern.solve_t(0.3, 0.6, 0.1, 2 ** 31)
