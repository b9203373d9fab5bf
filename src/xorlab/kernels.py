"""Backend selection for the training, projection, F_s-fit, copula-solve
and surface kernels.

Two interchangeable implementations exist: compiled C (kern.c, built
into a shared library and bound through ctypes by xorlab._cbackend) and
pure Python (xorlab._pycore, which generates straight-line code per
network shape on first use).
Each has six kernels, train_run, project_grid, fs_scorer (one
function, score(s), per F_s fit: the score of each s that classify's fit
tries, s snapped onto the One window by the scorer), solve_t
(copula.solve_s's bisection), grid_stats (a surface grid's minimum and
its index, maximum, strict minima and plateau cells) and grid_csv (a
grid's CSV text as bytes, each number as '%.17g' writes it, NaN as
"nan" whatever its sign; the C one by an exact integer path for most
doubles and snprintf for the rest).  Both produce results
bit-identical to the loop reference in tests/loop_kernels.py (fs_scorer:
to the Python one, copula.xor_f_lattice scored by _max_abs_diff, with
the same errors; solve_t: to _pycore.solve_t; grid_stats and grid_csv:
to the Python ones and tests/surface_reference.py); the compiled one is
just faster.  In both, train_run
stops early once no epoch could move any weight (it checks after epoch 1
and every 256th epoch), with the outputs the full run would give (see
_pycore).

This module re-exports the default backend's six kernels and BACKEND,
and SSE_BLOWUP, the divergence limit that _pycore writes once.  Each
backend object that get_backend returns also has sse_dataset, the one
cell of project_grid that leaves the weights as they are.

The compiled backend runs when a library loads, and Python otherwise;
without a library, ctypes is never imported.  This module is the one
place that builds and finds the library: the build of kern.c in this
package's __pycache__, named by a key of kern.c's bytes and the
compiler flags (cache_name).  On a miss the import compiles it there
with `cc` (build), so the package runs the compiled kernels wherever
`cc` is on PATH and its __pycache__ can be written, and removes the
libraries built from earlier versions of kern.c.  A missing compiler, a
compile error, a cache that cannot be written or a library that will
not load selects Python, silently.
"""

from __future__ import annotations

import os
import zlib

from . import _pycore
from .errors import DomainError

__all__ = [
    "BACKEND", "SSE_BLOWUP", "train_run", "project_grid", "fs_scorer",
    "solve_t", "grid_stats", "grid_csv", "get_backend", "available_backends",
]

# -ffp-contract=off keeps the compiled arithmetic bit-identical to the
# pure-Python backend (no FMA contraction).  The dot products are 2 to 9
# terms long: vectorized, each pays for a vector prologue and epilogue,
# and project_grid ran 25% slower, hence -fno-tree-vectorize.
CFLAGS = ("-O3", "-fno-tree-vectorize", "-ffp-contract=off", "-shared",
          "-fPIC")
LIBS = ("-lm",)
TIMEOUT_S = 60

_HERE = os.path.dirname(__file__)
_SOURCE = os.path.join(_HERE, "kern.c")
_CACHE = os.path.join(_HERE, "__pycache__")


def cache_name(source: bytes) -> str:
    """The file name of the library built from source with these flags."""
    key = zlib.crc32(source, zlib.crc32(" ".join(CFLAGS + LIBS).encode()))
    return f"_kern-{key:08x}.so"


def build(src: str, dest: str) -> None:
    """Compile the C file src into the shared library dest with `cc`.

    The compiler writes into a temporary directory beside dest, and its
    output then replaces dest in one step, so a reader sees the old file
    or the whole new one.

    Raises OSError (no `cc`, a directory that cannot be written),
    subprocess.CalledProcessError (a compile error; its stderr holds the
    compiler's messages) or subprocess.TimeoutExpired; nothing is printed.
    """
    import subprocess
    import tempfile

    # a directory beside dest, so the compiler's output is made with the
    # usual permissions and os.replace stays on one file system
    with tempfile.TemporaryDirectory(
            prefix=".", dir=os.path.dirname(os.path.abspath(dest))) as tmp:
        out = os.path.join(tmp, os.path.basename(dest))
        subprocess.run(["cc", *CFLAGS, "-o", out, src, *LIBS], check=True,
                       stdin=subprocess.DEVNULL, capture_output=True,
                       text=True, timeout=TIMEOUT_S)
        os.replace(out, dest)


def _library_path() -> str:
    """The cached build of kern.c, compiled on a miss; a miss also removes
    the other libraries in the cache, as best it can."""
    with open(_SOURCE, "rb") as fh:
        name = cache_name(fh.read())
    path = os.path.join(_CACHE, name)
    if not os.path.exists(path):
        os.makedirs(_CACHE, exist_ok=True)
        build(_SOURCE, path)
        import glob
        for old in glob.glob(os.path.join(_CACHE, "_kern-*.so")):
            if os.path.basename(old) != name:
                try:
                    os.remove(old)
                except OSError:
                    pass
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
SSE_BLOWUP = _pycore.SSE_BLOWUP
train_run = _impl.train_run
project_grid = _impl.project_grid
fs_scorer = _impl.fs_scorer
solve_t = _impl.solve_t
grid_stats = _impl.grid_stats
grid_csv = _impl.grid_csv
