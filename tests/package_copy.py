"""Copies of the xorlab package for tests that build or import it apart
from the checkout.

A module of its own, not conftest.py, so that `import package_copy`
finds this file in a pytest session that also collects another
directory's conftest.py (perfbench/tests has one)."""

import shutil
from pathlib import Path

from xorlab import kernels


def copy_package(dest: Path) -> Path:
    """Copy the xorlab package, without its __pycache__, into dest."""
    shutil.copytree(Path(kernels.__file__).parent, dest / "xorlab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def library_path(root: Path) -> Path:
    """Where the copy of xorlab in root keeps its compiled kernels."""
    pkg = root / "xorlab"
    name = kernels.cache_name((pkg / "kern.c").read_bytes())
    return pkg / "__pycache__" / name
