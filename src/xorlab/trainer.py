"""Gradient-descent training, restart sweeps, and classification of
trained networks against the limit functions F_0, F_1, F_inf, the step
surface, and the constant 1/2.

Training runs through the kernels backend (compiled when available); the
trainer owns validation, Network packing, and divergence reporting.

Classification evaluates a Network once over the lattice, through
network.forward_lattice: one generated pass per shape, cached in
_pycore._net_pass as "<xorlab forward_lattice 2-2-1 tanh-tanh>".  Every
candidate is a reference lattice scored by the largest |out - ref|
(_max_abs_diff): the fixed ones come from one table per grid
(_candidates), each F_s the fit tries from xor_f_lattice, and the edge
bound below is scored the same way.

The fit runs only when it can change the label.  F_s(x, 0) = x and
F_s(0, y) = y exactly for every s the fit tries (A_s is grounded, and
expm1(0 * ln s) is a signed zero), so the fit's deviation is never below
the outputs' deviation on those two edges.  When that edge deviation is
already no better than the best fixed candidate's, classify returns
Unclassified with the fixed deviation, as the fit would have.

The lattice axis (grid_axis) and sse come from datasets, the F_s
lattice (xor_f_lattice) from copula.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, replace

from . import kernels
from .copula import CopulaParam, xor_f_lattice
from .datasets import Dataset, grid_axis, sse
from .errors import DivergenceError, DomainError
from .network import Network, _as_topology, _samples, forward_lattice

__all__ = [
    "TrainConfig", "TrainResult", "FunctionLabel", "SweepEntry",
    "sse", "train", "classify", "sweep", "label_histogram",
    "envelope_check", "run_metadata",
]


# kern.c counts iterations in a C int; both backends take the same range
_MAX_ITERS = 2 ** 31 - 1


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters; the seed is mandatory, everything else defaulted."""

    seed: int
    learning_rate: float = 0.1
    max_iters: int = 10000
    tol: float = 1e-3
    mode: str = "per_sample"
    init_range: float = 1.0
    record_trajectory: bool = False

    def __post_init__(self):
        # NaN compares false both ways, so test for the valid range
        for name in ("learning_rate", "tol", "init_range"):
            value = getattr(self, name)
            if not (0.0 < value < math.inf):
                raise DomainError(
                    f"{name} must be positive and finite, got {value!r}")
        if self.max_iters < 1:
            raise DomainError(
                f"max_iters must be at least 1, got {self.max_iters!r}")
        if self.max_iters > _MAX_ITERS:
            raise DomainError(f"max_iters must be at most {_MAX_ITERS}, "
                              f"got {self.max_iters!r}")
        if self.mode not in ("per_sample", "full_batch"):
            raise DomainError(
                f"mode must be per_sample or full_batch, got {self.mode!r}")


@dataclass(frozen=True)
class TrainResult:
    final_net: "Network | None"      # None only for a non-finite divergence
    iterations: int
    final_sse: float
    converged: bool
    trajectory: "tuple[float, ...] | None" = None
    diverged: bool = False


@dataclass(frozen=True)
class FunctionLabel:
    """Classification verdict with its worst grid deviation."""

    kind: str                    # F0 F1 Finf Fs StepAbs ConstHalf Unclassified
    max_deviation: float
    s: "float | None" = None     # set only for Fs

    def render(self) -> str:
        if self.kind == "Fs":
            return f"Fs(s={self.s:.6g})"
        return self.kind


@dataclass(frozen=True)
class SweepEntry:
    seed: int
    result: TrainResult
    label: FunctionLabel
    envelope_ok: "bool | None"   # None when the run did not converge


def train(topology, data: Dataset, cfg: TrainConfig) -> TrainResult:
    """One seeded run; deterministic given (topology, data, cfg).

    Raises DivergenceError (carrying iteration, SSE, and the state) when
    the loss exceeds the blowup bound or goes non-finite; a non-finite
    state carries net=None.
    """
    topo = _as_topology(topology)
    xs, ts = _samples(topo, data, "training")
    w, iters, final_sse, status, traj = kernels.train_run(
        list(topo.layer_sizes), topo.codes, xs, ts, cfg.learning_rate,
        cfg.max_iters, cfg.tol, 1 if cfg.mode == "per_sample" else 0,
        cfg.seed, cfg.init_range,
        1 if cfg.record_trajectory else 0)
    if status == 3:
        # a NaN or inf weight cannot be packed into a Matrix
        raise DivergenceError(
            f"training diverged (non-finite state) at iteration {iters}, "
            f"sse={final_sse!r}", iters, final_sse, None)
    net = Network.from_flat(topo, w)
    if status == 2:
        raise DivergenceError(
            f"training diverged (SSE blowup) at iteration {iters}, "
            f"sse={final_sse!r}", iters, final_sse, net)
    trajectory = tuple(traj) if cfg.record_trajectory else None
    return TrainResult(net, iters, final_sse, status == 0, trajectory)


# ---------------------------------------------------------------------------
# classification against the limit functions

@dataclass(frozen=True)
class _Lattice:
    """Outputs of one function over the grid x grid lattice on [0,1]^2,
    row-major: outs[i * grid + j] is the value at (i/step, j/step)."""

    grid: int
    outs: "list[float]"


def _lattice(net, grid: int) -> _Lattice:
    """Evaluate a network (one generated lattice pass) or a callable (one
    call per point) once over the lattice.  Outputs that sweep already
    evaluated pass through, at the grid they were made on."""
    if isinstance(net, _Lattice):
        return net
    axis = _axis(grid)
    if isinstance(net, Network):
        return _Lattice(grid, forward_lattice(net, axis))
    return _Lattice(grid, [float(net(x, y)) for x in axis for y in axis])


@functools.lru_cache(maxsize=8)
def _axis(grid: int) -> "tuple[float, ...]":
    return grid_axis(0.0, 1.0, grid)


@functools.lru_cache(maxsize=8)
def _candidates(grid: int) -> dict:
    """The fixed candidates over the grid x grid lattice, in scoring order:
    kind -> (the flat indices it is compared on, None for every point;
    its reference values there).  StepAbs's indices are the open interior
    more than one lattice step (index-space Chebyshev, so the exclusion
    is exact) away from either zero corner."""
    axis, step = _axis(grid), grid - 1
    interior = tuple(i * grid + j
                     for i in range(1, step) for j in range(1, step)
                     if max(i, j) > 1 and max(step - i, step - j) > 1)
    return {
        # not xor_f_lattice(CopulaParam.zero()): x + y - 2 min(x, y)
        # differs from |x - y| in the last ulp at 254 of the 441 points of
        # the default 21 x 21 lattice
        "F0": (None, tuple(abs(x - y) for x in axis for y in axis)),
        "F1": (None, tuple(xor_f_lattice(CopulaParam.one(), axis))),
        "Finf": (None, tuple(xor_f_lattice(CopulaParam.infinity(), axis))),
        "ConstHalf": (None, (0.5,) * (grid * grid)),
        "StepAbs": (interior, (1.0,) * len(interior)),
    }


def _max_abs_diff(outs, ref, points=None) -> float:
    """Largest |out - ref| over a lattice, or over its flat indices points
    (ref then holds the reference at those points); inf when points is
    empty.  outs must be finite, since max() keeps or skips a NaN
    depending on where it sits."""
    if points is not None:
        outs = map(outs.__getitem__, points)
    return max(map(abs, map(operator.sub, outs, ref)), default=math.inf)


def _fs_lattice(grid: int, t: float) -> "list[float]":
    """F_s over the lattice at s = t / (1 - t)."""
    return xor_f_lattice(CopulaParam.finite(t / (1.0 - t)), _axis(grid))


def _fs_deviation(outs, grid: int, t: float) -> float:
    return _max_abs_diff(outs, _fs_lattice(grid, t))


# the points t = k/50 the F_s fit scans before its golden-section search;
# their lattices do not depend on the network, so they are built once per
# grid, up to a grid of _SCAN_CACHE_GRID (49 x 64 x 64 floats, about 5 MB),
# and once per fit beyond it
_SCAN_TS = tuple(k / 50.0 for k in range(1, 50))
_SCAN_CACHE_GRID = 64


@functools.lru_cache(maxsize=2)
def _scan_lattices(grid: int) -> "tuple[tuple[float, ...], ...]":
    return tuple(tuple(_fs_lattice(grid, t)) for t in _SCAN_TS)


def _scan_deviations(outs, grid: int) -> "list[float]":
    """_fs_deviation at each scan point, in order."""
    lattices = (_scan_lattices(grid) if grid <= _SCAN_CACHE_GRID
                else (_fs_lattice(grid, t) for t in _SCAN_TS))
    return [_max_abs_diff(outs, ref) for ref in lattices]


def _check_tol(tol: float) -> None:
    """A classification tolerance is a deviation bound: 0 or more, and
    inf (the nearest fixed candidate) is allowed; NaN is not."""
    # NaN compares false both ways, so test for the valid range
    if not tol >= 0.0:
        raise DomainError(
            f"classification tolerance must be non-negative, got {tol!r}")


def _golden_min(f, lo: float, hi: float, iters: int = 40):
    g = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - g * (hi - lo)
    d = lo + g * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - g * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + g * (hi - lo)
            fd = f(d)
    mid = 0.5 * (lo + hi)
    return mid, f(mid)


def classify(net, tol: float = 0.05, grid: int = 21) -> FunctionLabel:
    """Label a 2-in 1-out function by its closest limit function.

    Fixed candidates F0, F1, Finf and the constant 1/2 are compared over
    the whole grid x grid lattice on [0,1]^2.  The step surface (1
    everywhere except 0 at the corners (0,0) and (1,1)) is discontinuous
    exactly at those corners, so it is compared on the open interior only,
    more than one lattice step (Chebyshev) away from either zero corner.
    When no fixed candidate fits within tol, a finite s is fitted by 1-D
    search and Fs(s) is returned if it fits; otherwise Unclassified,
    carrying the best deviation seen.  The fit is skipped, with the same
    result, when the edge deviation max |out - x| over the points (x, 0)
    and (0, x) is at least the best fixed deviation: every copula is
    grounded, so every F_s the fit tries (s in [0.0101, 99], or the One
    variant) equals x on those points bit for bit, and no fit can get
    below that deviation or within tol.  A non-finite output anywhere on
    the lattice gives Unclassified with deviation inf, as for a diverged
    run.

    net is a 2-in 1-out Network or a callable f(x, y); sweep passes the
    network's lattice outputs, evaluated once for classify and
    envelope_check together.  A negative or NaN tol raises DomainError.
    """
    _check_tol(tol)
    lat = _lattice(net, grid)
    outs, grid = lat.outs, lat.grid
    if not all(map(math.isfinite, outs)):
        return FunctionLabel("Unclassified", math.inf)

    scored = [(_max_abs_diff(outs, ref, points), kind)
              for kind, (points, ref) in _candidates(grid).items()]
    best_dev, best_kind = min(scored, key=lambda sc: sc[0])
    if best_dev <= tol:
        return FunctionLabel(best_kind, best_dev)

    # no F_s the fit tries gets below the edge deviation (docstring)
    axis = _axis(grid)
    edges = (*range(0, grid * grid, grid), *range(grid))
    if _max_abs_diff(outs, axis + axis, edges) >= best_dev:
        return FunctionLabel("Unclassified", best_dev)

    # fall back to fitting a finite parameter on t = s/(1+s)
    devs = _scan_deviations(outs, grid)
    k = devs.index(min(devs))
    lo = _SCAN_TS[k - 1] if k > 0 else 0.02 / 2.0
    hi = _SCAN_TS[k + 1] if k < len(_SCAN_TS) - 1 else (0.98 + 1.0) / 2.0
    t_star, fit_dev = _golden_min(lambda t: _fs_deviation(outs, grid, t),
                                  lo, hi)
    if fit_dev <= tol:
        return FunctionLabel("Fs", fit_dev, s=t_star / (1.0 - t_star))
    return FunctionLabel("Unclassified", min(best_dev, fit_dev))


def envelope_check(net, tol: float = 0.05, grid: int = 21) -> bool:
    """F_0 - tol <= out <= F_inf + tol over the whole lattice; a
    non-finite output fails.  A negative or NaN tol raises DomainError."""
    _check_tol(tol)
    lat = _lattice(net, grid)
    cands = _candidates(lat.grid)
    for o, lo, hi in zip(lat.outs, cands["F0"][1], cands["Finf"][1]):
        if not (lo - tol <= o <= hi + tol):
            return False
    return True


def sweep(topology, data: Dataset, cfg: TrainConfig, restarts: int,
          classify_tol: float = 0.05,
          classify_grid: int = 21) -> "list[SweepEntry]":
    """Restart train at seeds seed, seed+1, ... and label every run.

    Diverged runs are recorded (Unclassified, not converged), never fatal.
    Order is by seed.  Each trained network is evaluated once over the
    lattice; classify and envelope_check share those outputs.
    classify_tol and classify_grid are checked before the first restart.
    """
    if restarts < 1:
        raise DomainError(f"restarts must be at least 1, got {restarts}")
    _check_tol(classify_tol)
    _axis(classify_grid)
    topo = _as_topology(topology)
    entries = []
    for r in range(restarts):
        run_cfg = replace(cfg, seed=cfg.seed + r)
        try:
            result = train(topo, data, run_cfg)
        except DivergenceError as err:
            result = TrainResult(err.net, err.iteration, err.sse,
                                 converged=False, trajectory=None,
                                 diverged=True)
            entries.append(SweepEntry(run_cfg.seed, result,
                                      FunctionLabel("Unclassified", math.inf),
                                      None))
            continue
        lat = _lattice(result.final_net, classify_grid)
        label = classify(lat, tol=classify_tol, grid=classify_grid)
        env = (envelope_check(lat, tol=classify_tol, grid=classify_grid)
               if result.converged else None)
        entries.append(SweepEntry(run_cfg.seed, result, label, env))
    return entries


def label_histogram(entries, converged_only: bool = True) -> dict:
    """Label kind -> count, most frequent first."""
    counts: dict[str, int] = {}
    for e in entries:
        if converged_only and not e.result.converged:
            continue
        key = e.label.render()
        counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))


def run_metadata(topology, cfg: TrainConfig, result: TrainResult,
                 label: "FunctionLabel | None" = None) -> dict:
    """Config echo plus run outcome, ready for JSON serialization."""
    topo = _as_topology(topology)
    doc = {
        "spec": topo.render(),
        "seed": cfg.seed,
        "learning_rate": cfg.learning_rate,
        "max_iters": cfg.max_iters,
        "tol": cfg.tol,
        "mode": cfg.mode,
        "init_range": cfg.init_range,
        "iterations": result.iterations,
        "final_sse": result.final_sse,
        "converged": result.converged,
        "diverged": result.diverged,
    }
    if label is not None:
        doc["label"] = label.render()
        doc["max_deviation"] = label.max_deviation
    return doc
