"""The command line writes the same bytes on both kernel backends.

Runs benchmarks/cli_bytes.py's manifest once on a copy of the package
with its C kernels built, and once on a bare copy with `cc` off PATH (so
that its first import cannot build them), and compares the two past the
backend line.
"""

import importlib.util
import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "cli_bytes.py"
_spec = importlib.util.spec_from_file_location("cli_bytes", _SCRIPT)
cli_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_bytes)


def _without_cc(path: str) -> str:
    return os.pathsep.join(d for d in path.split(os.pathsep)
                           if not os.path.exists(os.path.join(d, "cc")))


def test_manifest_is_the_same_on_both_backends(c_package, bare_package):
    c_env = dict(os.environ, PYTHONPATH=str(c_package))
    python_env = dict(c_env, PYTHONPATH=str(bare_package),
                      PATH=_without_cc(c_env.get("PATH", "")))
    # the two runs share nothing, so they run side by side
    with ThreadPoolExecutor(2) as pool:
        compiled, python = pool.map(cli_bytes.manifest, (c_env, python_env))
    assert (compiled[0], python[0]) == ("backend c", "backend python")
    # stdout, stderr and exit of each invocation, then the files written
    rows = [line.split(" ", 1)[1] for line in compiled[1:]]
    assert rows[:3 * len(cli_bytes.INVOCATIONS)] == [
        f"{name}: {part}" for name, _ in cli_bytes.INVOCATIONS
        for part in ("stdout", "stderr", "exit")]
    assert compiled[1:] == python[1:]
