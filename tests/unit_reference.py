"""The probability type as it was before probabilities became plain floats.

Every probability used to pass through copula.UnitValue, a frozen
dataclass, and the connectives returned one.  The class, the _unit that
unwrapped it and the functions that returned or took it are kept here
verbatim (annotations and imports aside, and s.s passed where copula's
helpers now take s as a float), so that tests/test_unit.py can check
that copula._unit and the float-returning functions give float() of
what these gave, and the same errors.  solve_reference.py validates its
inputs with this _unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from xorlab.copula import (UNIT_EPS, CopulaParam, _frank_raw, _or_value,
                           _xor_value)
from xorlab.errors import DomainError
from xorlab.problogic import SampleSpace, truth_table_prob_exact


@dataclass(frozen=True)
class UnitValue:
    """A probability: a float confined to [0, 1].

    Values within UNIT_EPS of the interval are clamped onto it; anything
    farther out, and NaN, is rejected.
    """

    v: float

    def __post_init__(self):
        v = float(self.v)
        # NaN compares false both ways, so test for the valid range
        if not (-UNIT_EPS <= v <= 1.0 + UNIT_EPS):
            raise DomainError(f"value {v!r} outside [0, 1]")
        object.__setattr__(self, "v", min(1.0, max(0.0, v)))

    def __float__(self) -> float:
        return self.v


def _unit(x: "UnitValue | float") -> float:
    """Coerce a UnitValue or raw float into a validated [0, 1] float."""
    if isinstance(x, UnitValue):
        return x.v
    return UnitValue(x).v


def frank_and(s: CopulaParam, x, y) -> UnitValue:
    """A_s(x, y), the copula extension of 'and'."""
    return UnitValue(_frank_raw(s.s, _unit(x), _unit(y)))


def frank_or(s: CopulaParam, x, y) -> UnitValue:
    """R_s(x, y) = x + y - A_s(x, y), the dual extension of 'or'."""
    return UnitValue(_or_value(s.s, _unit(x), _unit(y)))


def xor_f(s: CopulaParam, x, y) -> UnitValue:
    """F_s(x, y) = x + y - 2 A_s(x, y), the xor family."""
    return UnitValue(_xor_value(s.s, _unit(x), _unit(y)))


def frechet_bounds(x, y) -> tuple[float, float]:
    """(lower, upper) admissible values for any 'and' probability:
    (A_inf(x, y), A_0(x, y))."""
    xv, yv = _unit(x), _unit(y)
    return (_frank_raw(math.inf, xv, yv), _frank_raw(0.0, xv, yv))


def truth_table_prob(expr, space) -> UnitValue:
    """Probability of expr over the sample space (float of the exact sum)."""
    return UnitValue(float(truth_table_prob_exact(expr, space)))


def empirical_frequencies(data) -> dict[str, UnitValue]:
    """Per-column fraction of ones over a Boolean dataset."""
    space = SampleSpace.from_dataset(data)
    n = len(space.rows)
    counts = [0] * len(space.variables)
    for assignment, _ in space.rows:
        for i, bit in enumerate(assignment):
            counts[i] += bit
    return {name: UnitValue(float(Fraction(c, n)))
            for name, c in zip(space.variables, counts)}
