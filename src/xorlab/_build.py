"""The one build rule for the compiled kernels: kern.c with `cc` into a
plain shared library.

setup.py, the test fixtures and xorlab.kernels all build through
build(), with CFLAGS.  -ffp-contract=off keeps the compiled arithmetic
bit-identical to the pure-Python backend (no FMA contraction).  The dot
products are 2 to 9 terms long: vectorized, each pays for a vector
prologue and epilogue, and project_grid ran 25% slower, hence
-fno-tree-vectorize.

This file imports nothing from the package, so setup.py can run it by
path, and it imports subprocess and tempfile only when it compiles.
"""

import os
import zlib

CFLAGS = ("-O3", "-fno-tree-vectorize", "-ffp-contract=off", "-shared",
          "-fPIC")
LIBS = ("-lm",)
TIMEOUT_S = 60


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
