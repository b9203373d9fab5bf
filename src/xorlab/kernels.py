"""Backend selection for the training and projection kernels.

Two interchangeable implementations exist: compiled C (kern.c, built by
setup.py into the shared library _kern.so next to this file and bound
through ctypes by xorlab._cbackend) and pure Python (xorlab._pycore,
which generates straight-line code per network shape on first use).
Each has two kernels, train_run and project_grid; sse_dataset is the one
cell of project_grid that leaves the weights as they are.  Both produce
results bit-identical to the loop reference in tests/loop_kernels.py;
the compiled one is just faster.  In both, train_run stops early once
no epoch could move any weight (it checks after epoch 1 and every 256th
epoch), with the outputs the full run would give (see _pycore).  The
compiled backend runs when its library is built and loads, and Python
otherwise; without a library, ctypes is never imported.
"""

from __future__ import annotations

import functools
import os

from . import _pycore
from .errors import DomainError

__all__ = [
    "BACKEND", "SSE_BLOWUP", "sse_dataset", "train_run", "project_grid",
    "get_backend", "available_backends",
]

_LIBRARY_NAME = "_kern.so"
_LIBRARY = os.path.join(os.path.dirname(__file__), _LIBRARY_NAME)


@functools.cache
def _load_compiled():
    if not os.path.exists(_LIBRARY):
        raise ImportError(f"compiled kernels not built: no {_LIBRARY}")
    from . import _cbackend
    return _cbackend.load(_LIBRARY)


def get_backend(name: str):
    """The backend named 'c' or 'python'; 'c' raises ImportError if the
    library is missing."""
    if name == "python":
        return _pycore
    if name == "c":
        return _load_compiled()
    raise DomainError(
        f"unknown backend {name!r}; choose 'c' or 'python'")


def available_backends() -> tuple[str, ...]:
    try:
        _load_compiled()
    except ImportError:
        return ("python",)
    return ("c", "python")


try:
    _impl = _load_compiled()
except ImportError:
    _impl = _pycore

BACKEND = _impl.BACKEND
SSE_BLOWUP = _impl.SSE_BLOWUP
sse_dataset = _impl.sse_dataset
train_run = _impl.train_run
project_grid = _impl.project_grid
