"""ctypes front end to the compiled kernels in kern.c.

load(path) binds the library that xorlab.kernels built from kern.c and
returns a namespace with the same exports as xorlab._pycore (BACKEND,
SSE_BLOWUP, sse_dataset, train_run, project_grid), taking and returning
the same Python types.  The library has two kernels, train_run and
project_grid; sse_dataset is the one cell of project_grid that leaves
the weights as they are.

The C side trusts its buffers, so shapes are checked here.  ctypes would
wrap an int too large for a C int silently; such a value (a size, a
count, max_iters) raises OverflowError instead.  An index outside the
weights raises IndexError, as the Python backend does, and an allocation
that fails in C raises MemoryError.
"""

from __future__ import annotations

import ctypes
import operator
from ctypes import POINTER, byref, c_double, c_int, c_uint64, c_void_p
from types import SimpleNamespace

from ._pycore import (MASK64, SSE_BLOWUP, _offsets, check_network,
                      check_weights)

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
    "kern_free": (None, [c_void_p]),
}


def _cint(value) -> int:
    v = operator.index(value)
    if not -_INT_MAX - 1 <= v <= _INT_MAX:
        raise OverflowError(f"{v} does not fit in a C int")
    return v


def _doubles(values):
    return (c_double * len(values))(*values)


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


def _weights(w, n_weights):
    check_weights(w, n_weights)
    return _doubles(w)


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
        work = _weights(w, n_weights)
        slots = range(len(work))
        na, nb = _cint(len(avals)), _cint(len(bvals))
        out = (c_double * (na * nb))()
        _ok(lib.project_grid(*net, work, cxs, cts, n_samples,
                             _cint(slots[ia]), _cint(slots[ib]),
                             _doubles(avals), na, _doubles(bvals), nb, out))
        return out[:]

    def sse_dataset(sizes, acts, w, xs, ts):
        """SSE at the weights w: the one cell of project_grid that leaves
        them as they are."""
        w = list(w)
        keep = w[:1]
        return project_grid(sizes, acts, w, xs, ts, 0, 0, keep, keep)[0]

    return SimpleNamespace(BACKEND="c", SSE_BLOWUP=SSE_BLOWUP,
                           sse_dataset=sse_dataset, train_run=train_run,
                           project_grid=project_grid)
