"""Build script: compiles the optional fast kernels.

src/xorlab/kern.c is built as a plain shared library, xorlab/_kern.so,
which xorlab.kernels loads through ctypes.  It is a performance twin of
xorlab._pycore; the package works without it, and a missing compiler
only prints a warning.  The flags and the compile step are
xorlab/_build.py's, the rule the package itself follows when it builds
kern.c into its __pycache__ on first import: with `cc` on PATH a
checkout runs the compiled kernels without this step.

    python setup.py build_ext --inplace     # src/xorlab/_kern.so
"""

import os
import runpy
import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext

_build = runpy.run_path(os.path.join("src", "xorlab", "_build.py"))


class KernelBuildExt(build_ext):
    """Build the library with _build.build if possible; fall back to pure
    Python if not."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # e.g. no library to copy in place
            print(f"warning: skipping C kernels ({exc}); "
                  "using the pure-Python backend", file=sys.stderr)

    def build_extension(self, ext):
        dest = self.get_ext_fullpath(ext.name)
        try:
            os.makedirs(os.path.dirname(dest), exist_ok=True)
            _build["build"](ext.sources[0], dest)
        except Exception as exc:  # no compiler, or a compile error
            detail = getattr(exc, "stderr", None) or exc
            print(f"warning: could not build {ext.name} ({detail}); "
                  "using the pure-Python backend", file=sys.stderr)

    def get_ext_filename(self, fullname):
        # a plain library, not an extension module: no ABI tag
        return os.path.join(*fullname.split(".")) + ".so"


setup(ext_modules=[Extension("xorlab._kern", sources=["src/xorlab/kern.c"])],
      cmdclass={"build_ext": KernelBuildExt})
