"""Fingerprint every byte the command line writes, for comparing two trees.

Runs a fixed list of `python -m xorlab.cli` invocations, in order, in a
fresh temporary directory (later ones read the models earlier ones
write): the --help of every parser, the copula, logic, regress, dataset,
net, train, classify, sweep and surface commands, and a few that must
fail.  It prints the kernel backend the commands run on, then one
`sha256 name` line for the stdout, the stderr and the exit code of each
invocation, and for every file they wrote, after two header lines that
name the Python version and the C library (`tanh`, `log1p` and `expm1`
come from libm).  Two trees wrote the same bytes exactly when their
manifests are the same:

    PYTHONPATH=src python benchmarks/cli_bytes.py > new.txt
    PYTHONPATH=../parent/src python benchmarks/cli_bytes.py > old.txt
    diff old.txt new.txt

The commands run on whichever backend the package selects: have `cc` on
PATH for the compiled one, or, for Python, take `cc` off PATH and put a
copy of the package without its `__pycache__` first on PYTHONPATH
(README, "Backends").  The script takes no options.  manifest(env) returns
the lines for a given environment; tests/test_cli_bytes.py compares the
two backends' manifests with it, and the compiled one with the golden
manifest tests/cli_bytes.manifest.  A change that means to alter output
regenerates that file, with `cc` on PATH:

    PYTHONPATH=src python benchmarks/cli_bytes.py > tests/cli_bytes.manifest
"""

import hashlib
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

_TRAIN = ("--data", "boolean_xor", "--lr", "0.5", "--max-iters", "2000")

INVOCATIONS = [
    *((f"help {' '.join(p) or 'xorlab'}", (*p, "--help")) for p in (
        (), ("copula",), ("copula", "eval"), ("copula", "solve-s"),
        ("copula", "grid"), ("logic",), ("logic", "prob"),
        ("logic", "table"), ("logic", "freq"), ("regress",), ("net",),
        ("net", "forward"), ("net", "collapse"), ("net", "count"),
        ("train",), ("classify",), ("sweep",), ("surface",),
        ("surface-all-pairs",), ("dataset",), ("dataset", "emit"),
        ("dataset", "list"))),
    ("copula eval and", ("copula", "eval", "--fn", "and", "--s", "2",
                         "--x", "0.3", "--y", "0.8")),
    ("copula eval or json", ("--format", "json", "copula", "eval", "--fn",
                             "or", "--s", "0", "--x", "0.3", "--y", "0.8")),
    ("copula eval xor inf", ("copula", "eval", "--fn", "xor", "--s", "inf",
                             "--x", "0.3", "--y", "0.8")),
    ("copula eval and 1", ("copula", "eval", "--fn", "and", "--s", "1",
                           "--x", "0.3", "--y", "0.8")),
    ("copula solve-s", ("copula", "solve-s", "--x", "0.5", "--y", "0.5",
                        "--p", "0.3")),
    ("copula solve-s bound", ("copula", "solve-s", "--x", "0.4", "--y",
                              "0.7", "--p", "0.4", "--format", "json")),
    # p = A_s(0.3, 0.6) at s = 1e-7 and 1e7: long bisections
    ("copula solve-s s 1e-7", ("copula", "solve-s", "--x", "0.3", "--y",
                               "0.6", "--p", "0.29951378194020006")),
    ("copula solve-s s 1e7", ("copula", "solve-s", "--x", "0.3", "--y",
                              "0.6", "--p", "0.011204433012379635",
                              "--format", "json")),
    ("copula grid xor", ("copula", "grid", "--fn", "xor", "--s", "2",
                         "--steps", "7")),
    ("copula grid and json", ("copula", "grid", "--fn", "and", "--s", "0",
                              "--steps", "5", "--format", "json")),
    ("copula grid out", ("copula", "grid", "--fn", "or", "--s", "inf",
                         "--steps", "9", "--out", "grid.csv")),
    ("logic prob", ("logic", "prob", "--expr", "x1 xor x2", "--assign",
                    "x1=0.3,x2=0.8", "--s", "2")),
    ("logic prob limits", ("logic", "prob", "--expr", "(a and b) or not c",
                           "--assign", "a=0.3,b=0.8,c=0.4", "--s", "inf",
                           "--format", "json")),
    ("logic prob syntax error", ("logic", "prob", "--expr", "a and",
                                 "--assign", "a=0.3", "--s", "2")),
    *((f"logic prob parens {n}", ("logic", "prob", "--expr",
                                  "(" * n + "a" + ")" * n, "--assign",
                                  "a=0.3", "--s", "2"))
      for n in (100, 101)),
    ("logic prob chain 101", ("logic", "prob", "--expr",
                              " xor ".join(["a"] * 102), "--assign",
                              "a=0.3", "--s", "2")),
    ("logic table", ("logic", "table", "--expr", "a xor b")),
    ("logic table 17 vars", ("logic", "table", "--expr",
                             " xor ".join(f"v{i}" for i in range(17)))),
    ("logic freq", ("logic", "freq", "--data", "fig2_1", "--check")),
    ("regress", ("regress", "--data", "boolean_xor")),
    ("regress product json", ("regress", "--data", "boolean_xor",
                              "--product-feature", "--format", "json")),
    ("dataset list", ("dataset", "list")),
    ("dataset emit", ("dataset", "emit", "--name", "fig2_1",
                      "--out", "fig2_1.csv")),
    ("net count", ("net", "count", "--spec", "2-9-1")),
    ("train tanh", ("train", "--spec", "2-2-1/inp-tanh-tanh", *_TRAIN,
                    "--seed", "4", "--out", "tanh.json", "--log", "tanh.csv")),
    ("train id json", ("train", "--spec", "2-2-1/inp-id-id", *_TRAIN,
                       "--seed", "1", "--out", "id.json", "--format",
                       "json")),
    ("net forward", ("net", "forward", "--model", "tanh.json",
                     "--input", "0.75,0.5")),
    ("net collapse", ("net", "collapse", "--model", "id.json",
                      "--out", "flat.json")),
    ("classify tanh", ("classify", "--model", "tanh.json")),
    ("classify id json", ("classify", "--model", "id.json", "--grid", "11",
                          "--format", "json")),
    ("sweep tanh", ("sweep", "--spec", "2-2-1/inp-tanh-tanh", *_TRAIN,
                    "--seed", "0", "--restarts", "6", "--classify-tol", "0.1",
                    "--out", "sweep-tanh.csv")),
    ("sweep relu json", ("sweep", "--spec", "2-2-1/inp-relu-relu",
                         "--data", "boolean_xor", "--seed", "1",
                         "--restarts", "6", "--max-iters", "3000",
                         "--out", "sweep-relu.csv", "--format", "json")),
    ("surface", ("surface", "--model", "tanh.json", "--data", "boolean_xor",
                 "--pair", "w1_11,w2_11", "--steps", "21",
                 "--out", "surf.csv")),
    ("surface all-pairs", ("surface", "all-pairs", "--model", "id.json",
                           "--data", "boolean_xor", "--range=-2,2",
                           "--steps", "7", "--out-dir", "pairs")),
    ("fail classify grid 1", ("classify", "--model", "tanh.json",
                              "--grid", "1")),
    ("fail sweep classify-grid 1", ("sweep", "--spec", "2-2-1/inp-tanh-tanh",
                                    *_TRAIN, "--seed", "0", "--restarts", "1",
                                    "--classify-grid", "1")),
    ("fail sweep diverged classify-grid 1", (
        "sweep", "--spec", "2-2-1/inp-tanh-id", "--data", "boolean_xor",
        "--lr", "1e200", "--restarts", "2", "--max-iters", "50", "--seed",
        "0", "--classify-grid", "1", "--out", "bad-grid.csv")),
    ("fail classify tol nan", ("classify", "--model", "tanh.json",
                               "--tol", "nan")),
    *((f"fail sweep classify-tol {tol}", (
        "sweep", "--spec", "2-2-1/inp-tanh-tanh", *_TRAIN, "--seed", "0",
        "--restarts", "1", "--classify-tol", tol, "--out", "bad-tol.csv"))
      for tol in ("nan", "-1")),
    ("fail copula grid steps 0", ("copula", "grid", "--s", "2",
                                  "--steps", "0")),
    ("fail surface steps 1", ("surface", "--model", "tanh.json", "--data",
                              "boolean_xor", "--pair", "w1_11,w1_12",
                              "--steps", "1", "--out", "bad.csv")),
    ("fail copula eval nan", ("copula", "eval", "--fn", "and", "--s", "2",
                              "--x", "nan", "--y", "0.5")),
    ("fail net forward input", ("net", "forward", "--model", "tanh.json",
                                "--input", "a,b")),
    ("fail net forward input nan", ("net", "forward", "--model", "tanh.json",
                                    "--input", "nan,1")),
    ("fail train max-iters 3000000000", (
        "train", "--spec", "2-2-1/inp-relu-relu", "--data", "boolean_xor",
        "--seed", "2", "--max-iters", "3000000000")),
    ("fail copula grid steps 99999999999999999999", (
        "copula", "grid", "--s", "2", "--steps", "99999999999999999999")),
    ("fail classify grid 3000000000", ("classify", "--model", "tanh.json",
                                       "--grid", "3000000000")),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _env() -> dict:
    """The caller's environment, with PYTHONPATH made absolute, since the
    commands run in another directory."""
    env = dict(os.environ)
    paths = env.get("PYTHONPATH", "").split(os.pathsep)
    env["PYTHONPATH"] = os.pathsep.join(os.path.abspath(p) for p in paths
                                        if p)
    return env


def header() -> list[str]:
    """The versions, beyond the tree, that a manifest's bytes depend on."""
    return [f"# python {platform.python_version()}",
            f"# libc {' '.join(platform.libc_ver())}"]


def manifest(env: dict) -> list[str]:
    """The manifest lines of INVOCATIONS run with environment env (whose
    PYTHONPATH entries must be absolute)."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        backend = subprocess.run(
            [sys.executable, "-c",
             "import xorlab.kernels as k; print(k.BACKEND)"],
            cwd=tmp, env=env, capture_output=True, text=True, check=True)
        lines.append(f"backend {backend.stdout.strip()}")
        for name, argv in INVOCATIONS:
            proc = subprocess.run([sys.executable, "-m", "xorlab.cli", *argv],
                                  cwd=tmp, env=env, capture_output=True)
            lines.append(f"{_sha(proc.stdout)} {name}: stdout")
            lines.append(f"{_sha(proc.stderr)} {name}: stderr")
            lines.append(f"{_sha(str(proc.returncode).encode())} {name}: exit")
        for path in sorted(Path(tmp).rglob("*")):
            if path.is_file():
                lines.append(f"{_sha(path.read_bytes())} "
                             f"file {path.relative_to(tmp).as_posix()}")
    return lines


def main() -> None:
    for line in header() + manifest(_env()):
        print(line)


if __name__ == "__main__":
    main()
