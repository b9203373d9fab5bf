"""Backend selection for the training and projection kernels.

Two interchangeable implementations exist: compiled C (kern.c, built
into a shared library and bound through ctypes by xorlab._cbackend) and
pure Python (xorlab._pycore, which generates straight-line code per
network shape on first use).
Each has two kernels, train_run and project_grid; sse_dataset is the one
cell of project_grid that leaves the weights as they are.  Both produce
results bit-identical to the loop reference in tests/loop_kernels.py;
the compiled one is just faster.  In both, train_run stops early once
no epoch could move any weight (it checks after epoch 1 and every 256th
epoch), with the outputs the full run would give (see _pycore).

The compiled backend runs when a library loads, and Python otherwise;
without a library, ctypes is never imported.  The library is _kern.so
when setup.py built one.  Otherwise it is the build of kern.c cached in
this package's __pycache__ under a key of kern.c's bytes and the
compiler flags (_build.cache_name); on a miss, the first import builds
it there with `cc` (_build.build), so a checkout runs the compiled
kernels wherever `cc` is on PATH.  A missing compiler, a compile error,
a cache that cannot be written or a library that will not load selects
Python, silently.
"""

from __future__ import annotations

import os

from . import _build, _pycore
from .errors import DomainError

__all__ = [
    "BACKEND", "SSE_BLOWUP", "sse_dataset", "train_run", "project_grid",
    "get_backend", "available_backends",
]

_HERE = os.path.dirname(__file__)
_LIBRARY_NAME = "_kern.so"
_LIBRARY = os.path.join(_HERE, _LIBRARY_NAME)
_SOURCE = os.path.join(_HERE, "kern.c")
_CACHE = os.path.join(_HERE, "__pycache__")


def _library_path() -> str:
    """setup.py's _kern.so if it exists, else the cached build of kern.c,
    compiled on a miss."""
    if os.path.exists(_LIBRARY):
        return _LIBRARY
    with open(_SOURCE, "rb") as fh:
        path = os.path.join(_CACHE, _build.cache_name(fh.read()))
    if not os.path.exists(path):
        os.makedirs(_CACHE, exist_ok=True)
        _build.build(_SOURCE, path)
    return path


def _load_compiled():
    """The compiled backend, or None if no library can be built and
    loaded; the reason goes to the "xorlab" logger at debug level, which
    prints nothing unless logging is configured."""
    try:
        path = _library_path()
        from . import _cbackend
        return _cbackend.load(path)
    except Exception:   # any failure selects python
        import logging
        logging.getLogger("xorlab").debug("compiled kernels unavailable",
                                          exc_info=True)
        return None


_compiled = _load_compiled()


def get_backend(name: str):
    """The backend named 'c' or 'python'; 'c' raises ImportError if no
    library loaded."""
    if name == "python":
        return _pycore
    if name == "c":
        if _compiled is None:
            raise ImportError("compiled kernels unavailable: no library "
                              "could be built and loaded")
        return _compiled
    raise DomainError(
        f"unknown backend {name!r}; choose 'c' or 'python'")


def available_backends() -> tuple[str, ...]:
    return ("python",) if _compiled is None else ("c", "python")


_impl = _pycore if _compiled is None else _compiled

BACKEND = _impl.BACKEND
SSE_BLOWUP = _impl.SSE_BLOWUP
sse_dataset = _impl.sse_dataset
train_run = _impl.train_run
project_grid = _impl.project_grid
