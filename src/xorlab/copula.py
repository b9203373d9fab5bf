"""Frank's associative copula family and the derived xor family.

A_s(x, y) = log_s(1 + (s^x - 1)(s^y - 1)/(s - 1)) for s in (0, inf), s != 1,
with the limits min(x, y) at s -> 0, x*y at s -> 1, and max(x+y-1, 0) at
s -> inf.  The dual is R_s = x + y - A_s and the xor family is
F_s = R_s - A_s = x + y - 2 A_s.

The three limits are written once, in _frank_raw, which takes every s in
[0, inf]: the Zero, One and Infinity variants carry s = 0, 1 and inf and
evaluate there like any finite s, and frechet_bounds is (A_inf, A_0).
A_s on a bare float s is _frank_raw itself; _or_value and _xor_value
build R_s and F_s from it, also on a float s.  frank_and, frank_or,
xor_f and problogic.copula_prob take a CopulaParam and read its s once.

The closed form is evaluated as log1p(expm1(xL) expm1(yL) / expm1(L)) / L
with L = ln s, which is stable in both quadrants (for s < 1 all three
expm1 terms are negative and the quotient is positive).  It is written in
three places: _frank_raw, one point at a time, for every scalar;
xor_f_lattice, which evaluates F_s over a whole lattice with expm1(xL)
computed once per axis value, in the same float order; and kern.c's
frank_closed.  kern.c uses it in frank_raw, a copy of _frank_raw's
dispatch, and in fs_deviation, the compiled F_s fit, which follows
xor_f_lattice for every s: CopulaParam.finite's One window, the closed
form in xor_f_lattice's float order, frank_raw for the rest, and
_unit's window and clamp.  kern.c reads UNIT_EPS, ONE_WINDOW and the
dispatch thresholds from here: kernels passes them to its build.

solve_s checks its input, snaps to the limits and builds the result here;
its bisection is a kernel, kernels.solve_t, looked up on every call:
_pycore.solve_t, a loop over _frank_raw, or kern.c's solve_t, the same
loop over frank_raw.  kernels is imported at the end of this module:
its backends import names from here, which are all defined by then.

Probabilities are plain floats.  _unit is the one rule for them: it takes
anything float() takes, rejects NaN and values more than UNIT_EPS outside
[0, 1], and clamps the rest onto the interval (so -0.0 becomes 0.0).
frank_and, frank_or and xor_f return a float that passed it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import DomainError, InfeasibleProbabilityError

UNIT_EPS = 1e-12        # clamp window around [0, 1]
ONE_WINDOW = 1e-6       # |s - 1| within this is One
ZERO_DISPATCH = 1e-8    # finite s below this evaluates via the s->0 limit
INF_DISPATCH = 1e8      # finite s above this evaluates via the s->inf limit
SOLVE_TOL = 1e-9        # bound snapping tolerance in solve_s
_BISECT_ITERS = 200
_LIMIT_S = {"zero": 0.0, "one": 1.0, "inf": math.inf}   # s of each limit


def _unit(x: float) -> float:
    """x as a probability: a float in [0, 1].

    Values within UNIT_EPS of the interval are clamped onto it; anything
    farther out, and NaN, is a DomainError.
    """
    v = float(x)
    # NaN compares false both ways, so test for the valid range
    if not (-UNIT_EPS <= v <= 1.0 + UNIT_EPS):
        raise DomainError(f"value {v!r} outside [0, 1]")
    return min(1.0, max(0.0, v))


@dataclass(frozen=True)
class CopulaParam:
    """The Frank parameter s as an extended value.

    One of the variants Zero, One, Infinity, or Finite(s).  s holds the
    number for every variant: 0, 1 and inf for the limits, and for Finite
    a positive real kept away from 1 (|s - 1| > ONE_WINDOW; the closed form
    divides by s - 1 and ln s).  A limit variant may be built from its kind
    alone, and takes no s but its own, so CopulaParam(p.kind, p.s) == p.
    Use the factory methods: `finite` normalizes values inside the One
    window to the One variant instead of rejecting them.
    """

    kind: str                # "zero" | "one" | "inf" | "finite"
    s: float | None = None

    def __post_init__(self):
        if self.kind == "finite":
            s = self.s
            if s is None or not math.isfinite(s) or s <= 0.0:
                raise DomainError(f"finite parameter must be a positive "
                                  f"real, got {s!r}")
            if abs(s - 1.0) <= ONE_WINDOW:
                raise DomainError(f"s={s!r} is inside the One window; use "
                                  f"CopulaParam.finite to normalize")
            return
        if self.kind not in _LIMIT_S:
            raise DomainError(f"unknown copula parameter kind {self.kind!r}")
        s = _LIMIT_S[self.kind]
        if self.s is not None and self.s != s:
            raise DomainError(f"{self.kind!r} variant takes s={s!r}, "
                              f"got {self.s!r}")
        object.__setattr__(self, "s", s)

    @classmethod
    def zero(cls) -> "CopulaParam":
        return cls("zero")

    @classmethod
    def one(cls) -> "CopulaParam":
        return cls("one")

    @classmethod
    def infinity(cls) -> "CopulaParam":
        return cls("inf")

    @classmethod
    def finite(cls, s: float) -> "CopulaParam":
        """Finite parameter; snaps to One inside the window, Infinity at inf."""
        s = float(s)
        if math.isnan(s) or s <= 0.0:
            raise DomainError(f"copula parameter must be positive, got {s!r}")
        if math.isinf(s):
            return cls.infinity()
        if abs(s - 1.0) <= ONE_WINDOW:
            return cls.one()
        return cls("finite", s)

    @classmethod
    def parse(cls, text: str) -> "CopulaParam":
        """CLI form: '0', '1', 'inf'/'infinity', or a positive float."""
        try:
            s = float(text)
        except ValueError:
            raise DomainError(f"cannot parse copula parameter {text!r}") \
                from None
        return cls.zero() if s == 0.0 else cls.finite(s)

    def render(self) -> str:
        return format(self.s, "g")


def _frank_raw(s: float, x: float, y: float) -> float:
    """A_s(x, y) for every s in [0, inf]: min(x, y) below ZERO_DISPATCH,
    max(x + y - 1, 0) above INF_DISPATCH, x * y at s == 1 exactly, and
    the closed form everywhere else."""
    if s < ZERO_DISPATCH:
        return min(x, y)
    if s > INF_DISPATCH:
        return max(x + y - 1.0, 0.0)
    L = math.log(s)
    if L == 0.0:
        # s == 1 bitwise; expm1/log1p keep every nearby s accurate, only
        # the exact singular point needs its limit
        return x * y
    q = math.expm1(x * L) * math.expm1(y * L) / math.expm1(L)
    return math.log1p(q) / L


@functools.lru_cache(maxsize=8)
def _unit_axis(axis: "tuple[float, ...]") -> "tuple[float, ...]":
    return tuple(_unit(v) for v in axis)


def xor_f_lattice(s: CopulaParam, axis) -> "list[float]":
    """F_s over the lattice axis x axis, flat and row-major.

    Entry i * len(axis) + j equals xor_f(s, axis[i], axis[j]) bit for bit.
    In the closed-form range expm1(x L) is computed once per axis value, and
    each point takes _frank_raw's operations in _frank_raw's order; the
    limits and the dispatched s call _frank_raw directly.
    """
    xs = _unit_axis(tuple(axis))
    if s.s != 1.0 and ZERO_DISPATCH <= s.s <= INF_DISPATCH:
        L = math.log(s.s)       # s != 1, so L != 0
        dL = math.expm1(L)
        pts = list(zip(xs, [math.expm1(x * L) for x in xs]))
        log1p = math.log1p
        fs = [x + y - 2.0 * (log1p(ex * ey / dL) / L)
              for x, ex in pts for y, ey in pts]
    else:
        fs = [x + y - 2.0 * _frank_raw(s.s, x, y) for x in xs for y in xs]
    # xor_f's _unit; values already inside [0, 1] need no clamp
    return [f if 0.0 <= f <= 1.0 else _unit(f) for f in fs]


def _or_value(s: float, x: float, y: float) -> float:
    return x + y - _frank_raw(s, x, y)


def _xor_value(s: float, x: float, y: float) -> float:
    return x + y - 2.0 * _frank_raw(s, x, y)


def frank_and(s: CopulaParam, x: float, y: float) -> float:
    """A_s(x, y), the copula extension of 'and'."""
    return _unit(_frank_raw(s.s, _unit(x), _unit(y)))


def frank_or(s: CopulaParam, x: float, y: float) -> float:
    """R_s(x, y) = x + y - A_s(x, y), the dual extension of 'or'."""
    return _unit(_or_value(s.s, _unit(x), _unit(y)))


def xor_f(s: CopulaParam, x: float, y: float) -> float:
    """F_s(x, y) = x + y - 2 A_s(x, y), the xor family.

    F_0 = |x - y|, F_1 = x + y - 2xy, F_inf = min(x+y, 1) - max(x+y-1, 0).
    """
    return _unit(_xor_value(s.s, _unit(x), _unit(y)))


def frechet_bounds(x: float, y: float) -> tuple[float, float]:
    """(lower, upper) admissible values for any 'and' probability:
    (A_inf(x, y), A_0(x, y))."""
    xv, yv = _unit(x), _unit(y)
    return (_frank_raw(math.inf, xv, yv), _frank_raw(0.0, xv, yv))


def solve_s(x: float, y: float, p: float) -> CopulaParam:
    """Solve A_s(x, y) = p for s.

    A_s(x, y) decreases monotonically in s from min(x, y) at s=0 to
    max(x+y-1, 0) at s=inf, so bisection on t = s/(1+s) in (0, 1) brackets
    the root.  p within SOLVE_TOL of a Frechet bound returns the Zero or
    Infinity variant; p outside the bounds is infeasible.

    The bisection is the kernel kernels.solve_t.  Each step is a pure
    function of the bracket (lo, hi), so it stops as soon as a step cannot
    move it (its midpoint equals the end it would replace), which takes
    about 55 steps in double precision, and at most after _BISECT_ITERS
    steps.  The result is the one the full _BISECT_ITERS steps give, bit
    for bit, on both backends.

    Near s = 1 the One window (1e-6 on s) is wider than the solve tolerance
    maps to (~4e-8 on p), so for targets in that annulus the returned One
    variant can miss p by slightly more than SOLVE_TOL; the window wins.
    """
    xv, yv, pv = _unit(x), _unit(y), _unit(p)
    lower, upper = frechet_bounds(xv, yv)
    if pv > upper + SOLVE_TOL or pv < lower - SOLVE_TOL:
        raise InfeasibleProbabilityError(
            f"p={pv!r} outside Frechet bounds [{lower!r}, {upper!r}] "
            f"for x={xv!r}, y={yv!r}")
    # one-sided, so that a feasible p either snaps or lies strictly
    # between the bounds, where the bisection stays inside (0, 1)
    if pv >= upper - SOLVE_TOL:
        return CopulaParam.zero()
    if pv <= lower + SOLVE_TOL:
        return CopulaParam.infinity()
    t = kernels.solve_t(xv, yv, pv, _BISECT_ITERS)
    return CopulaParam.finite(t / (1.0 - t))


from . import kernels   # last: _pycore and _cbackend take names from here
