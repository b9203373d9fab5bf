"""Shared pytest hooks and fixtures.

test_acceptance.py doubles as the sign-off checklist, so the terminal
summary ends with one labeled PASS/FAIL line per criterion, in numeric
order, regardless of how pytest interleaved the runs.

The c_package and ckern fixtures build the compiled kernels once per
session with the package's own build rule (xorlab.kernels.build), into
the __pycache__ of a temporary copy of the package, so the
backend-parity tests compare the library its import loads.  They skip
only when no cc is on PATH; a failed compile is an error.  The kern
fixture is each backend in turn.
"""

import re
import shutil
import subprocess
from pathlib import Path

import pytest

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


@pytest.fixture(scope="session")
def c_package(tmp_path_factory):
    """A directory holding a copy of xorlab with its C kernels built in;
    put it on PYTHONPATH to import that copy."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler: `cc` is not on PATH")
    root = copy_package(tmp_path_factory.mktemp("cbackend"))
    lib = library_path(root)
    lib.parent.mkdir()
    try:
        kernels.build(str(root / "xorlab" / "kern.c"), str(lib))
    except subprocess.CalledProcessError as err:
        pytest.fail(f"compiling kern.c failed: {' '.join(err.cmd)}\n"
                    f"{err.stderr}", pytrace=False)
    return root


@pytest.fixture
def bare_package(tmp_path):
    """A directory holding a copy of xorlab with no compiled kernels."""
    return copy_package(tmp_path)


@pytest.fixture(scope="session")
def ckern(c_package):
    """The compiled backend, loaded from c_package."""
    from xorlab import _cbackend
    return _cbackend.load(str(library_path(c_package)))


@pytest.fixture(scope="session", params=["python", "c"])
def kern(request):
    """Each backend in turn; the c one skips when no cc is on PATH."""
    if request.param == "c":
        return request.getfixturevalue("ckern")
    return kernels.get_backend("python")


_CRITERION = re.compile(r"test_criterion_(\d{2})_(\w+?)(?:\[|$)")
_verdicts: dict = {}


def pytest_runtest_logreport(report):
    m = _CRITERION.search(report.nodeid)
    if not m:
        return
    num, slug = m.groups()
    if report.when == "call":
        _verdicts[num] = (slug, report.outcome)
    elif report.failed:
        # setup/teardown crashes count as failures too
        _verdicts[num] = (slug, "failed")


def pytest_terminal_summary(terminalreporter):
    if not _verdicts:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_verdicts):
        slug, outcome = _verdicts[num]
        verdict = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {num} {slug}: {verdict}")
