"""ctypes front end to the compiled kernels in kern.c.

load(path) binds the library that xorlab.kernels built from kern.c and
returns a namespace with BACKEND and the same functions as
xorlab._pycore (sse_dataset, train_run, project_grid, forward_lattice,
fixed_scorer, fs_scorer, solve_t, grid_stats, grid_csv), taking and
returning the same Python types.  The library has eight kernels,
train_run, project_grid (which runs each unit at the loop level
_pycore.grid_levels gives it and writes each cell straight into the
buffer of the array('d') it returns), forward_lattice (kern.c's
forward pass, units_at, over each lattice row at once), fixed_scores
(behind fixed_scorer, which packs its rows into C arrays once, so each
score copies the outputs once and is one call), fs_deviation (behind
fs_scorer, which scores every s in C and leaves the error of an s the
kernel refuses to the Python scorer), solve_t, grid_stats and grid_csv
(which formats each number by an exact integer path or snprintf into
one 64 kB chunk of a work space allocated here, call after call, each
chunk handed to the caller's write as it fills); sse_dataset is
_pycore's, the one cell of project_grid that leaves the weights as they
are, run on this project_grid.  A grid handed back to grid_stats or
grid_csv as that array('d') reaches C by one buffer copy (_doubles).

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
from ctypes import (POINTER, byref, c_char, c_double, c_int, c_longlong,
                    c_size_t, c_uint64, c_void_p)
from types import SimpleNamespace

from . import _pycore
from ._pycore import (MASK64, _offsets, check_cells, check_lattice,
                      check_network, check_weights, fixed_rows, grid_levels,
                      sse_dataset)
from .copula import _unit_axis

_INT_MAX = 2 ** (8 * ctypes.sizeof(c_int) - 1) - 1
_DP = POINTER(c_double)
_IP = POINTER(c_int)
_NET = [c_int, _IP, _IP]            # nlayers, sizes, acts
_SIGNATURES = {
    "train_run": (c_int, _NET + [
        _DP, _DP, c_int, c_double, c_int, c_double, c_int, c_uint64,
        c_double, c_int, _DP, _IP, _DP, POINTER(_DP)]),
    "project_grid": (c_int, _NET + [
        _DP, _DP, _DP, c_int, c_int, c_int, _IP, _DP, c_int, _DP, c_int,
        _DP]),
    "forward_lattice": (c_int, _NET + [_DP, _DP, c_int, _DP]),
    "fixed_scores": (None, [c_int, _IP, _IP, _DP, _DP, _DP]),
    "fs_deviation": (c_double, [c_int, _DP, _DP, c_double, _DP]),
    "solve_t": (c_double, [c_double, c_double, c_double, c_int]),
    "grid_stats": (None, [c_int, _DP, _DP, _IP]),
    "grid_csv_work": (c_size_t, [c_int, c_int]),
    "grid_csv": (c_int, [_DP, c_int, _DP, c_int, _DP, POINTER(c_char),
                         POINTER(c_longlong)]),
    "kern_free": (None, [c_void_p]),
}


def _cint(value) -> int:
    v = operator.index(value)
    if not -_INT_MAX - 1 <= v <= _INT_MAX:
        raise OverflowError(f"{v} does not fit in a C int")
    return v


def _doubles(values):
    # through array.array: five times faster than c_double's constructor
    # on a list of 441 floats, with the same conversions and errors; an
    # array('d') is copied as one block
    buf = array("d", values)
    return (c_double * len(buf)).from_buffer(buf)


def _ok(rc: int) -> int:
    if rc < 0:
        raise MemoryError("out of memory in the compiled kernels")
    return rc


def _net(sizes, acts):
    """C arguments for a network, plus its weight count."""
    sizes = [_cint(s) for s in sizes]
    check_network(sizes, acts)
    nlayers = len(sizes) - 1
    net = (nlayers, (c_int * len(sizes))(*sizes),
           (c_int * nlayers)(*[_cint(a) for a in acts[:nlayers]]))
    return net, _cint(_offsets(sizes)[-1])


def _problem(sizes, acts, xs, ts):
    """C arguments for a network and a dataset, plus the weight count."""
    net, n_weights = _net(sizes, acts)
    n_samples = _cint(len(ts))
    if len(xs) < n_samples * net[1][0]:
        raise IndexError(f"{len(xs)} inputs for {n_samples} samples")
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
        ia, ib = _cint(slots[ia]), _cint(slots[ib])
        level = grid_levels(sizes, ia, ib)
        na, nb = _cint(len(avals)), _cint(len(bvals))
        out = array("d", [0.0]) * (na * nb)
        _ok(lib.project_grid(*net, work, cxs, cts, n_samples, ia, ib,
                             (c_int * len(level))(*level),
                             _doubles(avals), na, _doubles(bvals), nb,
                             (c_double * len(out)).from_buffer(out)))
        return out

    def forward_lattice(sizes, acts, w, axis):
        """The first output at every (x, y) of axis x axis, as a list;
        semantics identical to _pycore.forward_lattice."""
        net, n_weights = _net(sizes, acts)
        check_lattice(net[1])
        check_weights(w, n_weights)
        n = _cint(len(axis))
        out = array("d", [0.0]) * (n * n)
        _ok(lib.forward_lattice(*net, _doubles(w[:n_weights]),
                                _doubles(axis), n,
                                (c_double * len(out)).from_buffer(out)))
        return out.tolist()

    def fixed_scorer(rows):
        """score(outs), the deviation of each row; semantics identical to
        _pycore.fixed_scorer.  The rows become C arrays once here, so each
        score copies outs once and is one kernel call."""
        rows, cells = fixed_rows(rows)
        # C ints and doubles, with no Python object per point: a row at
        # grid 1001 holds a million points
        start, points, refs = array("i", [0]), array("i"), array("d")
        for row_points, ref in rows:
            points.extend(range(len(ref)) if row_points is None
                          else row_points)
            refs.extend(ref)
            start.append(len(points))
        nrows = _cint(len(rows))
        args = (nrows, (c_int * len(start)).from_buffer(start),
                (c_int * len(points)).from_buffer(points),
                (c_double * len(refs)).from_buffer(refs))
        fixed_scores, devs_type = lib.fixed_scores, c_double * nrows

        def score(outs):
            check_cells(outs, cells)
            # the call releases the GIL, so each call has its own devs
            devs = devs_type()
            fixed_scores(*args, _doubles(outs), devs)
            return devs[:]

        return score

    def fs_scorer(outs, axis):
        """score(s) for the F_s fit; semantics identical to
        _pycore.fs_scorer.  The outputs and the axis become C arrays once
        here, so each score is one kernel call, for every s."""
        xs = _unit_axis(tuple(axis))
        n = _cint(len(xs))
        check_cells(outs, n * n)
        args = (n, _doubles(xs), _doubles(outs[:n * n]))
        ex = (c_double * n)()
        fs_deviation = lib.fs_deviation

        def score(s):
            dev = fs_deviation(*args, s, ex)
            if dev < 0.0:
                # the reference raises for every s the kernel refuses
                _pycore.fs_scorer(outs, xs)(s)
                raise RuntimeError(f"fs_deviation refused s = {s!r}, "
                                   "which the Python scorer accepts")
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

    def grid_csv(write, header, axis_a, axis_b, values):
        """header, then the grid's CSV lines, through write; semantics
        identical to _pycore.grid_csv.  Every check and allocation comes
        before the first write.  Each call of kern.c's grid_csv fills one
        chunk of work, which write gets as a memoryview slice that is
        valid only during that call: the next chunk overwrites it."""
        na, nb = _cint(len(axis_a)), _cint(len(axis_b))
        cells = na * nb
        check_cells(values, cells)
        args = (_doubles(axis_a), na, _doubles(axis_b), nb, _doubles(values))
        work = bytearray(lib.grid_csv_work(na, nb))
        chunk, cell = memoryview(work), c_longlong(0)
        args += ((c_char * len(work)).from_buffer(work), byref(cell))
        if header:
            write(header)
        while cell.value < cells:
            write(chunk[:lib.grid_csv(*args)])

    return SimpleNamespace(BACKEND="c",
                           sse_dataset=functools.partial(
                               sse_dataset, project_grid=project_grid),
                           train_run=train_run, project_grid=project_grid,
                           forward_lattice=forward_lattice,
                           fixed_scorer=fixed_scorer,
                           fs_scorer=fs_scorer, solve_t=solve_t,
                           grid_stats=grid_stats, grid_csv=grid_csv)
