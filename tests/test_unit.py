"""Probabilities are plain floats, with the values and errors of UnitValue.

copula._unit is the one check for a probability, and frank_and, frank_or,
xor_f, copula_prob, truth_table_prob and empirical_frequencies return the
float it gives.  unit_reference.py keeps the UnitValue type they used to
return; each comparison here is of repr of float() of a result, or of the
type and message of the error raised, so -0.0 and NaN count.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unit_reference as ref
from xorlab.copula import (UNIT_EPS, CopulaParam, _unit, frank_and,
                           frank_or, frechet_bounds, xor_f)
from xorlab.datasets import builtin
from xorlab.problogic import (SampleSpace, check_consistency, copula_prob,
                              empirical_frequencies, parse_expr,
                              truth_table_prob)

_EDGE = [0.0, -0.0, 1.0, UNIT_EPS, -UNIT_EPS, 1.0 + UNIT_EPS,
         1.0 - UNIT_EPS, math.nextafter(-UNIT_EPS, -math.inf),
         math.nextafter(1.0 + UNIT_EPS, math.inf), 5e-324, -5e-324,
         math.nan, math.inf, -math.inf, True, False, 0, 1, 2, -1,
         Fraction(1, 3), "0.25", "-0.0", "x", None]
# near the ends of [0, 1], anywhere, and inside
_NEAR = st.one_of(st.floats(-3 * UNIT_EPS, 3 * UNIT_EPS),
                  st.floats(1.0 - 3 * UNIT_EPS, 1.0 + 3 * UNIT_EPS))
_ANY = st.one_of(_NEAR, st.floats(), st.floats(0.0, 1.0))
_PARAMS = [CopulaParam.zero(), CopulaParam.one(), CopulaParam.infinity(),
           *(CopulaParam.finite(s) for s in (1e-9, 1e-8, 0.003, 0.5, 2.0,
                                             40.0, 1e8, 1e9))]


def _outcome(fn, *args):
    """repr of float() of the result (of each item of a tuple), or the type
    and message of the error raised."""
    try:
        out = fn(*args)
    except Exception as err:        # compared, not swallowed
        return f"{type(err).__name__}: {err}"
    if isinstance(out, tuple):
        return repr(tuple(float(v) for v in out))
    return repr(float(out))


@pytest.mark.parametrize("x", _EDGE, ids=repr)
def test_unit_matches_unit_value_at_the_edges(x):
    assert _outcome(_unit, x) == _outcome(lambda v: ref.UnitValue(v).v, x)


@settings(max_examples=500, deadline=None)
@given(_ANY)
def test_unit_matches_unit_value_on_drawn_floats(x):
    assert _outcome(_unit, x) == _outcome(lambda v: ref.UnitValue(v).v, x)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_PARAMS), _ANY, _ANY)
def test_connectives_match_reference(s, x, y):
    for new, old in ((frank_and, ref.frank_and), (frank_or, ref.frank_or),
                     (xor_f, ref.xor_f)):
        assert _outcome(new, s, x, y) == _outcome(old, s, x, y)
    assert _outcome(frechet_bounds, x, y) == \
        _outcome(ref.frechet_bounds, x, y)


@pytest.mark.parametrize("s", _PARAMS, ids=lambda s: s.render())
def test_connectives_match_reference_on_the_edges(s):
    for x in _EDGE:
        for y in (0.0, 0.3, 1.0, -UNIT_EPS, 1.0 + UNIT_EPS):
            for new, old in ((frank_and, ref.frank_and),
                             (frank_or, ref.frank_or), (xor_f, ref.xor_f)):
                assert _outcome(new, s, x, y) == _outcome(old, s, x, y), \
                    (new.__name__, x, y)


@settings(max_examples=300, deadline=None)
@given(_ANY, _ANY, _ANY, _ANY)
def test_check_consistency_validates_as_unit_value(px, py, pand, por):
    # the verdict on the values UnitValue kept, or UnitValue's error
    def parent(*ps):
        return check_consistency(*(ref.UnitValue(p).v for p in ps))

    def verdict(fn, *ps):
        try:
            return fn(*ps)
        except Exception as err:
            return f"{type(err).__name__}: {err}"

    assert verdict(check_consistency, px, py, pand, por) == \
        verdict(parent, px, py, pand, por)


def test_truth_table_and_frequencies_match_reference():
    space = SampleSpace.uniform(("a", "b"), [(0, 0), (0, 1), (1, 1)])
    for text in ("a", "a xor b", "a and not a", "a or not a", "b"):
        expr = parse_expr(text)
        assert _outcome(truth_table_prob, expr, space) == \
            _outcome(ref.truth_table_prob, expr, space)
    for name in ("fig2_1", "boolean_xor"):
        new = empirical_frequencies(builtin(name))
        old = ref.empirical_frequencies(builtin(name))
        assert list(new) == list(old)
        assert [repr(v) for v in new.values()] == \
            [repr(float(v)) for v in old.values()]


def test_results_are_floats():
    s = CopulaParam.finite(2.0)
    expr = parse_expr("a xor b")
    space = SampleSpace.uniform(("a", "b"), [(0, 1), (1, 1)])
    results = [frank_and(s, 0.3, 0.8), frank_or(s, 0.3, 0.8),
               xor_f(s, 0.3, 0.8),
               copula_prob(expr, {"a": 0.3, "b": 0.8}, s),
               truth_table_prob(expr, space),
               *empirical_frequencies(builtin("fig2_1")).values()]
    assert [type(v) for v in results] == [float] * len(results)
