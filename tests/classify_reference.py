"""trainer.classify as it was before it skipped the F_s fit, kept verbatim
as the reference the label-equality tests compare the library against:
whenever no fixed candidate fits, it always runs the 49-point scan and
the golden-section search."""

import math

from xorlab.trainer import (_FIXED_CANDIDATES, FunctionLabel, _fs_deviation,
                            _golden_min, _lattice, _max_abs_diff,
                            _shape_lattice, _step_interior)


def classify(net, tol: float = 0.05, grid: int = 21) -> FunctionLabel:
    """Label a 2-in 1-out function by its closest limit function, fitting
    F_s whenever no fixed candidate is within tol."""
    lat = _lattice(net, grid)
    outs, grid = lat.outs, lat.grid
    if not all(map(math.isfinite, outs)):
        return FunctionLabel("Unclassified", math.inf)

    scored = [(_max_abs_diff(outs, _shape_lattice(cand, grid)), kind)
              for kind, cand in _FIXED_CANDIDATES]
    interior = [abs(outs[k] - 1.0) for k in _step_interior(grid)]
    scored.append((max(interior) if interior else math.inf, "StepAbs"))

    best_dev, best_kind = min(scored, key=lambda sc: sc[0])
    if best_dev <= tol:
        return FunctionLabel(best_kind, best_dev)

    # fall back to fitting a finite parameter on t = s/(1+s)
    ts = [k / 50.0 for k in range(1, 50)]
    devs = [_fs_deviation(outs, grid, t) for t in ts]
    k = devs.index(min(devs))
    lo = ts[k - 1] if k > 0 else 0.02 / 2.0
    hi = ts[k + 1] if k < len(ts) - 1 else (0.98 + 1.0) / 2.0
    t_star, fit_dev = _golden_min(lambda t: _fs_deviation(outs, grid, t),
                                  lo, hi)
    if fit_dev <= tol:
        return FunctionLabel("Fs", fit_dev, s=t_star / (1.0 - t_star))
    return FunctionLabel("Unclassified", min(best_dev, fit_dev))
