"""The command line writes the same bytes on both kernel backends, and the
bytes of the golden manifest.

Runs benchmarks/cli_bytes.py's manifest once on a copy of the package
with its C kernels built, and once on a bare copy with `cc` off PATH (so
that its first import cannot build them), and compares the two past the
backend line.  The compiled manifest is then compared with
tests/cli_bytes.manifest past its backend line.  That file was written by
one Python version on one C library (its header names both); elsewhere
libm may round tanh, log1p or expm1 differently, so the comparison skips
there and names both versions.  A change that means to alter output
regenerates the file (benchmarks/cli_bytes.py says how).
"""

import importlib.util
import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from package_copy import copy_package

_ROOT = Path(__file__).resolve().parents[1]
_SCRIPT = _ROOT / "benchmarks" / "cli_bytes.py"
_GOLDEN = _ROOT / "tests" / "cli_bytes.manifest"
_spec = importlib.util.spec_from_file_location("cli_bytes", _SCRIPT)
cli_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_bytes)


def _without_cc(path: str) -> str:
    return os.pathsep.join(d for d in path.split(os.pathsep)
                           if not os.path.exists(os.path.join(d, "cc")))


@pytest.fixture(scope="module")
def manifests(c_package, tmp_path_factory):
    """The manifests of the compiled and of the Python backend."""
    bare = copy_package(tmp_path_factory.mktemp("bare"))
    c_env = dict(os.environ, PYTHONPATH=str(c_package))
    python_env = dict(c_env, PYTHONPATH=str(bare),
                      PATH=_without_cc(c_env.get("PATH", "")))
    # the two runs share nothing, so they run side by side
    with ThreadPoolExecutor(2) as pool:
        return tuple(pool.map(cli_bytes.manifest, (c_env, python_env)))


def test_manifest_is_the_same_on_both_backends(manifests):
    compiled, python = manifests
    assert (compiled[0], python[0]) == ("backend c", "backend python")
    # stdout, stderr and exit of each invocation, then the files written
    rows = [line.split(" ", 1)[1] for line in compiled[1:]]
    assert rows[:3 * len(cli_bytes.INVOCATIONS)] == [
        f"{name}: {part}" for name, _ in cli_bytes.INVOCATIONS
        for part in ("stdout", "stderr", "exit")]
    assert compiled[1:] == python[1:]


def test_manifest_matches_the_golden_file(manifests):
    header = cli_bytes.header()
    golden = _GOLDEN.read_text().splitlines()
    recorded = golden[:len(header)]
    if recorded != header:
        pytest.skip(f"{_GOLDEN.name} was recorded on "
                    f"{'; '.join(line[2:] for line in recorded)}, this run "
                    f"is on {'; '.join(line[2:] for line in header)}")
    assert golden[len(header)] == "backend c"
    compiled = manifests[0]
    assert compiled[1:] == golden[len(header) + 1:]
