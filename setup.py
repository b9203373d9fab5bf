"""Build script: compiles the optional fast kernels.

src/xorlab/kern.c is built as a plain shared library, xorlab/_kern.so,
which xorlab.kernels loads through ctypes.  It is a performance twin of
xorlab._pycore; the package works without it, and a missing compiler
only prints a warning.  -ffp-contract=off keeps the compiled arithmetic
bit-identical to the pure-Python backend (no FMA contraction).  The dot
products are 2 to 9 terms long: vectorized, each pays for a vector
prologue and epilogue, and project_grid ran 25% slower, hence
-fno-tree-vectorize.

    python setup.py build_ext --inplace     # src/xorlab/_kern.so
"""

import os
import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """Build the library if possible; fall back to pure Python if not."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler or toolchain missing
            print(f"warning: skipping C kernels ({exc}); "
                  "using the pure-Python backend", file=sys.stderr)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            print(f"warning: could not build {ext.name} ({exc}); "
                  "using the pure-Python backend", file=sys.stderr)

    def get_ext_filename(self, fullname):
        # a plain library, not an extension module: no ABI tag
        return os.path.join(*fullname.split(".")) + ".so"

    def get_export_symbols(self, ext):
        return []       # no PyInit_ entry point


KERNELS = Extension(
    "xorlab._kern",
    sources=["src/xorlab/kern.c"],
    extra_compile_args=["-O3", "-fno-tree-vectorize", "-ffp-contract=off"],
)

setup(ext_modules=[KERNELS], cmdclass={"build_ext": OptionalBuildExt})
