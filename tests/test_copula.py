"""Copula family tests: pinned point values, the algebraic laws, limit
dispatch, and the parameter solver."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xorlab.copula import (CopulaParam, UnitValue, frank_and, frank_or,
                           frechet_bounds, heaviside, solve_s, xor_f)
from xorlab.errors import DomainError, InfeasibleProbabilityError

unit = st.floats(0.0, 1.0)


def test_unit_value_clamps_dust_and_rejects_junk():
    assert float(UnitValue(-1e-13)) == 0.0
    assert float(UnitValue(1.0 + 1e-13)) == 1.0
    assert float(UnitValue(0.25)) == 0.25
    with pytest.raises(DomainError):
        UnitValue(1.5)
    with pytest.raises(DomainError):
        UnitValue(-0.1)


def test_nan_is_rejected_not_clamped():
    # min(1, max(0, nan)) would be 0.0: NaN must fail the range test
    nan = math.nan
    with pytest.raises(DomainError):
        UnitValue(nan)
    with pytest.raises(DomainError):
        frank_and(CopulaParam.finite(2.0), nan, 0.5)
    with pytest.raises(DomainError):
        solve_s(nan, 0.5, 0.0)
    with pytest.raises(DomainError):
        solve_s(0.5, 0.5, nan)


def test_param_parse_render_round_trip():
    assert CopulaParam.parse("0").kind == "zero"
    assert CopulaParam.parse("1").kind == "one"
    assert CopulaParam.parse("inf").kind == "inf"
    assert CopulaParam.parse("Infinity").kind == "inf"
    p = CopulaParam.parse("2.5")
    assert p.kind == "finite" and p.s == 2.5
    for text in ("0", "1", "inf", "2.5", "0.75"):
        assert CopulaParam.parse(CopulaParam.parse(text).render()) \
            == CopulaParam.parse(text)


@pytest.mark.parametrize("text, kind, rendered", [
    ("0", "zero", "0"), ("-0", "zero", "0"), ("1", "one", "1"),
    ("1.0000001", "one", "1"), ("inf", "inf", "inf"), ("+inf", "inf", "inf"),
    ("Infinity", "inf", "inf"), (" 3 ", "finite", "3"),
    ("2.5", "finite", "2.5"), ("1e-300", "finite", "1e-300")])
def test_param_parse_render_table(text, kind, rendered):
    p = CopulaParam.parse(text)
    assert (p.kind, p.render()) == (kind, rendered)


def test_param_parse_rejections():
    for bad, message in (
            ("-1", "copula parameter must be positive, got -1.0"),
            ("nan", "copula parameter must be positive, got nan"),
            ("-inf", "copula parameter must be positive, got -inf"),
            ("xyzzy", "cannot parse copula parameter 'xyzzy'"),
            ("", "cannot parse copula parameter ''")):
        with pytest.raises(DomainError) as exc:
            CopulaParam.parse(bad)
        assert str(exc.value) == message


def test_param_s_is_the_number_of_every_variant():
    zero, one, inf = (CopulaParam.zero(), CopulaParam.one(),
                      CopulaParam.infinity())
    assert (zero.s, one.s, inf.s) == (0.0, 1.0, math.inf)
    assert CopulaParam("zero") == zero
    for p in (zero, one, inf, CopulaParam.finite(0.5),
              CopulaParam.finite(2.0)):
        assert CopulaParam(p.kind, p.s) == p
    # a limit variant takes its own s and no other
    for kind, s in (("zero", 1.0), ("one", 0.0), ("inf", 1e300),
                    ("one", math.nan)):
        with pytest.raises(DomainError):
            CopulaParam(kind, s)


def test_finite_snaps_to_one_inside_window():
    assert CopulaParam.finite(1.0 + 1e-9).kind == "one"
    assert CopulaParam.finite(1.1).kind == "finite"
    assert CopulaParam.finite(float("inf")).kind == "inf"


def test_limit_point_values():
    # s=1 is independence, s=0 the min copula, s=inf the Frechet floor
    assert float(frank_and(CopulaParam.one(), 0.5, 0.5)) == 0.25
    assert float(frank_and(CopulaParam.zero(), 0.4, 0.7)) == 0.4
    assert float(frank_and(CopulaParam.infinity(), 0.4, 0.7)) \
        == pytest.approx(0.1, abs=1e-15)


def test_finite_value_frozen_oracle():
    # high-precision reference for A_2(1/2, 1/2), frozen
    a = float(frank_and(CopulaParam.finite(2.0), 0.5, 0.5))
    assert a == pytest.approx(0.22844669683638802, abs=1e-15)


def test_dispatch_agrees_with_limits_at_extreme_s():
    # below/above the dispatch windows the finite formula is replaced
    # by the exact limit, bit for bit
    assert float(frank_and(CopulaParam.finite(1e-12), 0.3, 0.8)) == 0.3
    assert float(frank_and(CopulaParam.finite(1e12), 0.6, 0.7)) \
        == pytest.approx(0.3, abs=1e-15)
    # approach is continuous from the finite side (rate is O(s^gap / ln s))
    near0 = float(frank_and(CopulaParam.finite(1e-7), 0.3, 0.8))
    assert abs(near0 - 0.3) < 1e-3


def test_xor_limit_formulas():
    f0 = xor_f(CopulaParam.zero(), 0.3, 0.8)
    f1 = xor_f(CopulaParam.one(), 0.3, 0.8)
    finf = xor_f(CopulaParam.infinity(), 0.3, 0.8)
    assert float(f0) == pytest.approx(abs(0.3 - 0.8), abs=1e-15)
    assert float(f1) == pytest.approx(0.3 + 0.8 - 2 * 0.24, abs=1e-15)
    assert float(finf) == pytest.approx(
        min(1.1, 1.0) - max(1.1 - 1.0, 0.0), abs=1e-15)


@given(unit, unit, st.sampled_from(
    [CopulaParam.zero(), CopulaParam.finite(0.01), CopulaParam.finite(0.5),
     CopulaParam.one(), CopulaParam.finite(2.0), CopulaParam.finite(20.0),
     CopulaParam.infinity()]))
@settings(max_examples=300, deadline=None)
def test_and_or_additivity_and_bounds(x, y, p):
    """A + R = x + y and the Frechet envelope, for all parameters; the
    limit variants are min, x*y and max(x + y - 1, 0) bit for bit, and
    the envelope is (A_inf, A_0)."""
    a = float(frank_and(p, x, y))
    r = float(frank_or(p, x, y))
    assert abs((a + r) - (x + y)) < 1e-12
    lo, hi = frechet_bounds(x, y)
    assert lo - 1e-12 <= a <= hi + 1e-12
    limit = {"zero": min(x, y), "one": x * y,
             "inf": max(x + y - 1.0, 0.0)}.get(p.kind)
    if limit is not None:
        assert a.hex() == limit.hex()
    assert (lo, hi) == (float(frank_and(CopulaParam.infinity(), x, y)),
                        float(frank_and(CopulaParam.zero(), x, y)))


@given(unit, st.sampled_from([0.01, 0.5, 1.0, 2.0, 20.0]))
@settings(max_examples=200, deadline=None)
def test_boundary_conditions(x, s):
    p = CopulaParam.finite(s) if s != 1.0 else CopulaParam.one()
    assert float(frank_and(p, x, 0.0)) == pytest.approx(0.0, abs=1e-12)
    assert float(frank_and(p, 0.0, x)) == pytest.approx(0.0, abs=1e-12)
    assert float(frank_and(p, x, 1.0)) == pytest.approx(x, abs=1e-12)
    assert float(frank_and(p, 1.0, x)) == pytest.approx(x, abs=1e-12)


@given(unit, unit)
@settings(max_examples=200, deadline=None)
def test_and_is_decreasing_in_s(x, y):
    params = [CopulaParam.zero(), CopulaParam.finite(0.1),
              CopulaParam.one(), CopulaParam.finite(10.0),
              CopulaParam.infinity()]
    values = [float(frank_and(p, x, y)) for p in params]
    for lo, hi in zip(values[1:], values):
        assert lo <= hi + 1e-10


@given(unit, unit, st.sampled_from([0.25, 1.0, 4.0]))
@settings(max_examples=200, deadline=None)
def test_symmetry(x, y, s):
    p = CopulaParam.finite(s) if s != 1.0 else CopulaParam.one()
    assert float(frank_and(p, x, y)) == pytest.approx(
        float(frank_and(p, y, x)), abs=1e-14)


def test_xor_edge_laws():
    p = CopulaParam.finite(3.0)
    for k in range(21):
        x = k / 20.0
        assert float(xor_f(p, x, 0.0)) == pytest.approx(x, abs=1e-12)
        assert float(xor_f(p, x, 1.0)) == pytest.approx(1.0 - x, abs=1e-12)


def test_associativity_of_finite_and():
    # Frank is the archimedean family, so A(A(x,y),z) = A(x,A(y,z))
    p = CopulaParam.finite(5.0)
    for x, y, z in [(0.2, 0.7, 0.9), (0.5, 0.5, 0.5), (0.9, 0.1, 0.6)]:
        left = float(frank_and(p, float(frank_and(p, x, y)), z))
        right = float(frank_and(p, x, float(frank_and(p, y, z))))
        assert left == pytest.approx(right, abs=1e-12)


def test_solve_s_pinned_value():
    p = solve_s(0.5, 0.5, 0.3)
    assert p.kind == "finite"
    assert p.s == pytest.approx(0.193, abs=1e-3)
    assert float(xor_f(p, 0.5, 0.5)) == pytest.approx(0.4, abs=1e-6)


def test_solve_s_snaps_to_limits():
    assert solve_s(0.5, 0.5, 0.5).kind == "zero"     # p = min(x, y)
    assert solve_s(0.5, 0.5, 0.0).kind == "inf"      # p = Frechet floor
    assert solve_s(0.4, 0.7, 0.1).kind == "inf"


def test_solve_s_infeasible():
    with pytest.raises(InfeasibleProbabilityError):
        solve_s(0.5, 0.5, 0.6)
    with pytest.raises(InfeasibleProbabilityError):
        solve_s(0.4, 0.7, 0.05)


@given(st.floats(0.25, 0.75), st.floats(0.25, 0.75), st.floats(0.25, 0.75))
@settings(max_examples=150, deadline=None)
def test_solve_s_round_trip(x, y, frac):
    """Inverting A then re-evaluating recovers the target probability.

    Holds for targets away from the Frechet bounds: A_s approaches a
    bound only like 1/|ln s|, so the last ~0.04 next to each bound needs
    s outside the (1e-8, 1e8) dispatch window and cannot round-trip.
    These ranges keep p at least 0.06 from either bound.
    """
    lo, hi = frechet_bounds(x, y)
    p = lo + frac * (hi - lo)
    param = solve_s(x, y, p)
    assert abs(float(frank_and(param, x, y)) - p) < 1e-7


def test_heaviside():
    assert heaviside(-1.0) == 0.0
    assert heaviside(0.0) == 0.0
    assert heaviside(1e-300) == 1.0
    assert heaviside(2.0) == 1.0


def test_corner_agreement_with_boolean_xor():
    table = {(0, 0): 0.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): 0.0}
    for p in (CopulaParam.zero(), CopulaParam.one(),
              CopulaParam.finite(0.7), CopulaParam.infinity()):
        for (x, y), want in table.items():
            assert float(xor_f(p, x, y)) == pytest.approx(want, abs=1e-12)
