"""trainer.classify as it was before it skipped the F_s fit, kept as the
reference the label-equality tests compare the library against: whenever
no fixed candidate fits, it always runs the 49-point scan and the
golden-section search, each step scored on the F_s lattice of
copula.xor_f_lattice.  It builds its own axis and fixed candidates and
takes each deviation itself, so it does not go through either backend's
F_s scorer; only the lattice and the search come from trainer, and other
tests pin those."""

import functools
import math
import operator

from xorlab.copula import CopulaParam, xor_f_lattice
from xorlab.trainer import FunctionLabel, _golden_min, _lattice


# every F_s lattice the fit tries; the 49 scan lattices of a grid stay in
# the cache, since every fit tries them again
@functools.lru_cache(maxsize=256)
def _fs_lattice(axis, t):
    return xor_f_lattice(CopulaParam.finite(t / (1.0 - t)), axis)


def fs_deviation(outs, axis, t):
    """max |out - F_s| over the lattice, s = t / (1 - t)."""
    return max(map(abs, map(operator.sub, outs, _fs_lattice(axis, t))))


def classify(net, tol: float = 0.05, grid: int = 21) -> FunctionLabel:
    """Label a 2-in 1-out function by its closest limit function, fitting
    F_s whenever no fixed candidate is within tol."""
    lat = _lattice(net, grid)
    outs, grid = lat.outs, lat.grid
    if not all(map(math.isfinite, outs)):
        return FunctionLabel("Unclassified", math.inf)

    step = grid - 1
    axis = tuple(i / step for i in range(grid))
    fixed = (("F0", [abs(x - y) for x in axis for y in axis]),
             ("F1", xor_f_lattice(CopulaParam.one(), axis)),
             ("Finf", xor_f_lattice(CopulaParam.infinity(), axis)),
             ("ConstHalf", [0.5] * (grid * grid)))
    scored = [(max(abs(o - r) for o, r in zip(outs, ref)), kind)
              for kind, ref in fixed]
    interior = [abs(outs[i * grid + j] - 1.0)
                for i in range(1, step) for j in range(1, step)
                if max(i, j) > 1 and max(step - i, step - j) > 1]
    scored.append((max(interior) if interior else math.inf, "StepAbs"))

    best_dev, best_kind = min(scored, key=lambda sc: sc[0])
    if best_dev <= tol:
        return FunctionLabel(best_kind, best_dev)

    # fall back to fitting a finite parameter on t = s/(1+s)
    ts = [k / 50.0 for k in range(1, 50)]
    devs = [fs_deviation(outs, axis, t) for t in ts]
    k = devs.index(min(devs))
    lo = ts[k - 1] if k > 0 else 0.02 / 2.0
    hi = ts[k + 1] if k < len(ts) - 1 else (0.98 + 1.0) / 2.0
    t_star, fit_dev = _golden_min(lambda t: fs_deviation(outs, axis, t),
                                  lo, hi)
    if fit_dev <= tol:
        return FunctionLabel("Fs", fit_dev, s=t_star / (1.0 - t_star))
    return FunctionLabel("Unclassified", min(best_dev, fit_dev))
