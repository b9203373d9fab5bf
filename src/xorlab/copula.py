"""Frank's associative copula family and the derived xor family.

A_s(x, y) = log_s(1 + (s^x - 1)(s^y - 1)/(s - 1)) for s in (0, inf), s != 1,
with the limits min(x, y) at s -> 0, x*y at s -> 1, and max(x+y-1, 0) at
s -> inf.  The dual is R_s = x + y - A_s and the xor family is
F_s = R_s - A_s = x + y - 2 A_s.

The closed form is evaluated as log1p(expm1(xL) expm1(yL) / expm1(L)) / L
with L = ln s, which is stable in both quadrants (for s < 1 all three
expm1 terms are negative and the quotient is positive).  It is written in
two places: _frank_raw, one point at a time, for every scalar and for
xor_f_lattice; and xor_f_deviation, which fits a lattice of outputs
against F_s without building the lattice and walks only its upper
triangle.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

from .errors import DomainError, InfeasibleProbabilityError

UNIT_EPS = 1e-12        # clamp window around [0, 1]
ONE_WINDOW = 1e-6       # |s - 1| below this is the One variant
ZERO_DISPATCH = 1e-8    # finite s below this evaluates via the s->0 limit
INF_DISPATCH = 1e8      # finite s above this evaluates via the s->inf limit
SOLVE_TOL = 1e-9        # bound snapping tolerance in solve_s
_BISECT_ITERS = 200


@dataclass(frozen=True)
class UnitValue:
    """A probability: a float confined to [0, 1].

    Values within UNIT_EPS of the interval are clamped onto it; anything
    farther out is rejected.
    """

    v: float

    def __post_init__(self):
        v = float(self.v)
        if v < -UNIT_EPS or v > 1.0 + UNIT_EPS:
            raise DomainError(f"value {v!r} outside [0, 1]")
        object.__setattr__(self, "v", min(1.0, max(0.0, v)))

    def __float__(self) -> float:
        return self.v


def _unit(x: "UnitValue | float") -> float:
    """Coerce a UnitValue or raw float into a validated [0, 1] float."""
    if isinstance(x, UnitValue):
        return x.v
    return UnitValue(x).v


@dataclass(frozen=True)
class CopulaParam:
    """The Frank parameter s as an extended value.

    One of the variants Zero, One, Infinity, or Finite(s) with s a positive
    real kept away from 1 (|s - 1| > ONE_WINDOW; the closed form divides by
    s - 1 and ln s).  Use the factory methods: `finite` normalizes values
    inside the One window to the One variant instead of rejecting them.
    """

    kind: str                # "zero" | "one" | "inf" | "finite"
    s: float | None = None

    def __post_init__(self):
        if self.kind not in ("zero", "one", "inf", "finite"):
            raise DomainError(f"unknown copula parameter kind {self.kind!r}")
        if self.kind == "finite":
            s = self.s
            if s is None or not math.isfinite(s) or s <= 0.0:
                raise DomainError(f"finite parameter must be a positive "
                                  f"real, got {s!r}")
            if abs(s - 1.0) <= ONE_WINDOW:
                raise DomainError(f"s={s!r} is inside the One window; use "
                                  f"CopulaParam.finite to normalize")
        elif self.s is not None:
            raise DomainError(f"{self.kind!r} variant takes no s value")

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
        t = text.strip().lower()
        if t in ("inf", "infinity"):
            return cls.infinity()
        try:
            s = float(t)
        except ValueError:
            raise DomainError(f"cannot parse copula parameter {text!r}") \
                from None
        if s == 0.0:
            return cls.zero()
        if s == 1.0:
            return cls.one()
        return cls.finite(s)

    def render(self) -> str:
        if self.kind == "zero":
            return "0"
        if self.kind == "one":
            return "1"
        if self.kind == "inf":
            return "inf"
        return format(self.s, "g")


def _frank_raw(s: float, x: float, y: float) -> float:
    """Closed form for finite s, with limit dispatch at the extremes."""
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

    Entry i * len(axis) + j equals float(xor_f(s, axis[i], axis[j])) bit
    for bit, with the UnitValue window applied inline.
    """
    xs = _unit_axis(tuple(axis))
    fs = [_xor_value(s, x, y) for x in xs for y in xs]
    # the UnitValue window; values already inside [0, 1] need no clamp
    return [f if 0.0 <= f <= 1.0 else UnitValue(f).v for f in fs]


def xor_f_deviation(s: CopulaParam, axis, outs) -> float:
    """max |outs[k] - xor_f_lattice(s, axis)[k]| bit for bit, and the
    same DomainError; outs holds one value per lattice point.

    For s in the closed-form range the lattice is never built.  F_s is
    symmetric bit for bit (IEEE + and * commute), so each value of the
    upper triangle is computed once, put through the UnitValue window and
    compared with the outputs at (i, j) and (j, i): 231 log1p calls for
    the 441 points of a 21 x 21 lattice.  expm1(x L) is computed once per
    axis value.  Every other s goes through xor_f_lattice.
    """
    if not (s.kind == "finite" and ZERO_DISPATCH <= s.s <= INF_DISPATCH):
        return max(map(abs, map(operator.sub, outs,
                                xor_f_lattice(s, axis))))
    # sliced per row below: as a tuple, those slices pile up in CPython's
    # tuple free lists (about 0.4 MB of peak memory), as a list they do not
    xs = list(_unit_axis(tuple(axis)))
    # a finite s is never 1, so L != 0
    L = math.log(s.s)
    ex = [math.expm1(x * L) for x in xs]
    dL = math.expm1(L)
    log1p = math.log1p
    g = len(xs)
    # max() keeps a NaN only when it comes first, and the walk below
    # starts at the same point; the row-major first value outside the
    # window lies on the upper triangle, so it is met first here too
    worst = 0.0 if outs[0] == outs[0] else math.nan
    for i, (x, ei) in enumerate(zip(xs, ex)):
        k = i * (g + 1)             # the diagonal point (i, i)
        for y, ej, d_ij, d_ji in zip(xs[i:], ex[i:], outs[k:k + g - i],
                                     outs[k::g]):
            f = x + y - 2.0 * (log1p(ei * ej / dL) / L)
            if f < 0.0 or f > 1.0:      # never NaN: |q| < 1 when s < 1
                f = UnitValue(f).v
            d_ij = abs(d_ij - f)
            d_ji = abs(d_ji - f)
            if d_ij > worst:
                worst = d_ij
            if d_ji > worst:
                worst = d_ji
    return worst


def _and_value(s: CopulaParam, x: float, y: float) -> float:
    if s.kind == "zero":
        return min(x, y)
    if s.kind == "one":
        return x * y
    if s.kind == "inf":
        return max(x + y - 1.0, 0.0)
    return _frank_raw(s.s, x, y)


def _or_value(s: CopulaParam, x: float, y: float) -> float:
    return x + y - _and_value(s, x, y)


def _xor_value(s: CopulaParam, x: float, y: float) -> float:
    return x + y - 2.0 * _and_value(s, x, y)


def frank_and(s: CopulaParam, x: "UnitValue | float",
              y: "UnitValue | float") -> UnitValue:
    """A_s(x, y), the copula extension of 'and'."""
    return UnitValue(_and_value(s, _unit(x), _unit(y)))


def frank_or(s: CopulaParam, x: "UnitValue | float",
             y: "UnitValue | float") -> UnitValue:
    """R_s(x, y) = x + y - A_s(x, y), the dual extension of 'or'."""
    return UnitValue(_or_value(s, _unit(x), _unit(y)))


def xor_f(s: CopulaParam, x: "UnitValue | float",
          y: "UnitValue | float") -> UnitValue:
    """F_s(x, y) = x + y - 2 A_s(x, y), the xor family.

    F_0 = |x - y|, F_1 = x + y - 2xy, F_inf = min(x+y, 1) - max(x+y-1, 0).
    """
    return UnitValue(_xor_value(s, _unit(x), _unit(y)))


def frechet_bounds(x: "UnitValue | float",
                   y: "UnitValue | float") -> tuple[float, float]:
    """(lower, upper) admissible values for any 'and' probability."""
    xv, yv = _unit(x), _unit(y)
    return (max(xv + yv - 1.0, 0.0), min(xv, yv))


def solve_s(x: "UnitValue | float", y: "UnitValue | float",
            p: "UnitValue | float") -> CopulaParam:
    """Solve A_s(x, y) = p for s.

    A_s(x, y) decreases monotonically in s from min(x, y) at s=0 to
    max(x+y-1, 0) at s=inf, so bisection on t = s/(1+s) in (0, 1) brackets
    the root.  p within SOLVE_TOL of a Frechet bound returns the Zero or
    Infinity variant; p outside the bounds is infeasible.

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
    lo, hi = 0.0, 1.0
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        s_mid = mid / (1.0 - mid)
        if _frank_raw(s_mid, xv, yv) > pv:
            lo = mid          # need more s to bring A down
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    return CopulaParam.finite(t / (1.0 - t))


def heaviside(t: float) -> float:
    """Unit step: 1 for t > 0, 0 for t <= 0."""
    return 1.0 if t > 0.0 else 0.0
