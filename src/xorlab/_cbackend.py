"""ctypes front end to the compiled kernels in kern.c.

load(path) binds the library that xorlab.kernels built from kern.c and
returns a namespace with BACKEND and the same functions as
xorlab._pycore (sse_dataset, train_run, project_grid, fs_scorer,
solve_t, grid_stats, grid_csv), taking and returning the same Python
types.  The
library has six kernels, train_run, project_grid, fs_deviation (behind
fs_scorer, which scores every s in C and raises the Python backend's
errors), solve_t, grid_stats and grid_csv (which formats each number
by an exact integer path or snprintf into a buffer the library
allocates, copied here into bytes); sse_dataset is _pycore's, the one
cell of project_grid that leaves the weights as they are, run on this
project_grid.

The C side trusts its buffers, so shapes are checked here.  ctypes would
wrap an int too large for a C int silently; such a value (a size, a
count, max_iters) raises OverflowError instead.  An index outside the
weights raises IndexError, as the Python backend does, and an allocation
that fails in C raises MemoryError.
"""

from __future__ import annotations

import ctypes
import functools
import operator
from array import array
from ctypes import (POINTER, byref, c_char_p, c_double, c_int, c_longlong,
                    c_size_t, c_uint64, c_void_p)
from types import SimpleNamespace

from ._pycore import (MASK64, _offsets, check_cells, check_network,
                      check_weights, sse_dataset)
from .copula import CopulaParam, _unit, _unit_axis

_INT_MAX = 2 ** (8 * ctypes.sizeof(c_int) - 1) - 1
_DP = POINTER(c_double)
_IP = POINTER(c_int)
_NET = [c_int, _IP, _IP]            # nlayers, sizes, acts
_SIGNATURES = {
    "train_run": (c_int, _NET + [
        _DP, _DP, c_int, c_double, c_int, c_double, c_int, c_uint64,
        c_double, c_int, _DP, _IP, _DP, POINTER(_DP)]),
    "project_grid": (c_int, _NET + [
        _DP, _DP, _DP, c_int, c_int, c_int, _DP, c_int, _DP, c_int, _DP]),
    "fs_deviation": (c_double, [c_int, _DP, _DP, c_double, _DP, _DP]),
    "solve_t": (c_double, [c_double, c_double, c_double, c_int]),
    "grid_stats": (None, [c_int, _DP, _DP, _IP]),
    "grid_csv": (c_longlong, [c_char_p, c_size_t, _DP, c_int, _DP, c_int,
                              _DP, POINTER(c_void_p)]),
    "kern_free": (None, [c_void_p]),
}


def _cint(value) -> int:
    v = operator.index(value)
    if not -_INT_MAX - 1 <= v <= _INT_MAX:
        raise OverflowError(f"{v} does not fit in a C int")
    return v


def _doubles(values):
    # through array.array: five times faster than c_double's constructor
    # on a list of 441 floats, with the same conversions and errors
    buf = array("d", values)
    return (c_double * len(buf)).from_buffer(buf)


def _ok(rc: int) -> int:
    if rc < 0:
        raise MemoryError("out of memory in the compiled kernels")
    return rc


def _problem(sizes, acts, xs, ts):
    """C arguments for a network and a dataset, plus the weight count."""
    sizes = [_cint(s) for s in sizes]
    check_network(sizes, acts)
    nlayers = len(sizes) - 1
    n_weights = _cint(_offsets(sizes)[-1])
    n_samples = _cint(len(ts))
    if len(xs) < n_samples * sizes[0]:
        raise IndexError(f"{len(xs)} inputs for {n_samples} samples")
    net = (nlayers, (c_int * len(sizes))(*sizes),
           (c_int * nlayers)(*[_cint(a) for a in acts[:nlayers]]))
    return net, _doubles(xs), _doubles(ts), n_samples, n_weights


def load(path: str) -> SimpleNamespace:
    """Bind the library at path; ImportError if it cannot be used."""
    try:
        lib = ctypes.CDLL(path)
        for name, (restype, argtypes) in _SIGNATURES.items():
            fn = getattr(lib, name)
            fn.restype, fn.argtypes = restype, argtypes
    except (OSError, AttributeError) as exc:
        raise ImportError(f"cannot load compiled kernels: {exc}") from exc

    def train_run(sizes, acts, xs, ts, lr, max_iters, tol, per_sample,
                  seed, init_range, record):
        """Gradient-descent run; returns (weights, iters, sse, status, traj).

        Semantics identical to _pycore.train_run.
        """
        net, cxs, cts, n_samples, n_weights = _problem(sizes, acts, xs, ts)
        w = (c_double * n_weights)()
        iters, sse, traj = c_int(), c_double(), _DP()
        try:
            status = _ok(lib.train_run(
                *net, cxs, cts, n_samples, float(lr), _cint(max_iters),
                float(tol), 1 if per_sample else 0, seed & MASK64,
                float(init_range), 1 if record else 0,
                w, byref(iters), byref(sse), byref(traj)))
            done = max(iters.value, 0)
            return (w[:], iters.value, sse.value, status,
                    traj[:done] if traj else [])
        finally:
            lib.kern_free(traj)

    def project_grid(sizes, acts, w, xs, ts, ia, ib, avals, bvals):
        """SSE at every (avals[i], bvals[j]) written into flat slots ia/ib."""
        net, cxs, cts, n_samples, n_weights = _problem(sizes, acts, xs, ts)
        check_weights(w, n_weights)
        work = _doubles(w)
        slots = range(len(work))
        na, nb = _cint(len(avals)), _cint(len(bvals))
        out = (c_double * (na * nb))()
        _ok(lib.project_grid(*net, work, cxs, cts, n_samples,
                             _cint(slots[ia]), _cint(slots[ib]),
                             _doubles(avals), na, _doubles(bvals), nb, out))
        return out[:]

    def fs_scorer(outs, axis):
        """score(s) for the F_s fit; semantics identical to
        _pycore.fs_scorer.  The outputs and the axis become C arrays once
        here, so each score is one kernel call, for every s."""
        xs = _unit_axis(tuple(axis))
        n = _cint(len(xs))
        check_cells(outs, n * n)
        args = (n, _doubles(xs), _doubles(outs[:n * n]))
        ex, bad = (c_double * n)(), c_double()
        fs_deviation, pbad = lib.fs_deviation, ctypes.pointer(bad)

        def score(s):
            dev = fs_deviation(*args, s, ex, pbad)
            if dev < 0.0:
                # s <= 0 or NaN: finite raises; otherwise _unit raises on
                # the first F_s value outside its window
                CopulaParam.finite(s)
                _unit(bad.value)
            return dev

        return score

    kern_solve_t = lib.solve_t

    def solve_t(x, y, p, iters):
        """copula.solve_s's bisection; semantics identical to
        _pycore.solve_t."""
        return kern_solve_t(x, y, p, _cint(iters))

    def grid_stats(values, n):
        """(min, its flat index, max, strict minima, plateau cells);
        semantics identical to _pycore.grid_stats."""
        n = _cint(n)
        check_cells(values, _cint(n * n))
        lohi, counts = (c_double * 2)(), (c_int * 3)()
        lib.grid_stats(n, _doubles(values), lohi, counts)
        return lohi[0], counts[0], lohi[1], counts[1], counts[2]

    def grid_csv(header, axis_a, axis_b, values):
        """The CSV text as bytes; semantics identical to
        _pycore.grid_csv."""
        na, nb = _cint(len(axis_a)), _cint(len(axis_b))
        check_cells(values, na * nb)
        text = c_void_p()
        try:
            size = _ok(lib.grid_csv(header, len(header), _doubles(axis_a),
                                    na, _doubles(axis_b), nb,
                                    _doubles(values), byref(text)))
            return ctypes.string_at(text, size)
        finally:
            lib.kern_free(text)

    return SimpleNamespace(BACKEND="c",
                           sse_dataset=functools.partial(
                               sse_dataset, project_grid=project_grid),
                           train_run=train_run, project_grid=project_grid,
                           fs_scorer=fs_scorer, solve_t=solve_t,
                           grid_stats=grid_stats, grid_csv=grid_csv)
