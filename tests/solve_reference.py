"""The reference xorlab.copula.solve_s is compared against, bit for bit.

This is the solver as it was before its bisection stopped at the fixed
point of the bracket, kept verbatim: it always runs all 200 steps.  The
bracket is a pure function of itself, so once a step leaves (lo, hi)
unchanged the remaining steps repeat it, and both solvers must return the
same CopulaParam, or raise the same error with the same message.  Its
inputs pass unit_reference's _unit and frechet_bounds, as they did then.
"""

from __future__ import annotations

from unit_reference import _unit, frechet_bounds
from xorlab.copula import SOLVE_TOL, CopulaParam, _frank_raw
from xorlab.errors import InfeasibleProbabilityError

BISECT_ITERS = 200


def solve_s(x, y, p) -> CopulaParam:
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
    for _ in range(BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        s_mid = mid / (1.0 - mid)
        if _frank_raw(s_mid, xv, yv) > pv:
            lo = mid          # need more s to bring A down
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    return CopulaParam.finite(t / (1.0 - t))
