"""Backend selection for the training and projection kernels.

Two interchangeable implementations exist: compiled C (kern.c, built by
setup.py into the shared library _kern.so next to this file and bound
through ctypes by xorlab._cbackend) and pure Python (xorlab._pycore,
which generates straight-line code per network shape on first use).
Both produce results bit-identical to the loop reference in
tests/loop_kernels.py; the compiled one is just faster.  The default
picks the compiled backend when its library is built and loads, and
falls back to Python; without a library, ctypes is never imported.  Set
XORLAB_BACKEND=c or XORLAB_BACKEND=python to force one.
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
    """The named kernel backend; 'c' raises if the library is missing."""
    key = name.strip().lower()
    if key in ("python", "pure"):
        return _pycore
    if key in ("c", "compiled"):
        return _load_compiled()
    raise DomainError(
        f"unknown backend {name!r}; choose 'c' or 'python'")


def available_backends() -> tuple[str, ...]:
    try:
        _load_compiled()
    except ImportError:
        return ("python",)
    return ("c", "python")


_choice = os.environ.get("XORLAB_BACKEND", "auto").strip().lower()
if _choice in ("auto", ""):
    try:
        _impl = _load_compiled()
    except ImportError:
        _impl = _pycore
else:
    _impl = get_backend(_choice)

BACKEND = _impl.BACKEND
SSE_BLOWUP = _impl.SSE_BLOWUP
sse_dataset = _impl.sse_dataset
train_run = _impl.train_run
project_grid = _impl.project_grid
