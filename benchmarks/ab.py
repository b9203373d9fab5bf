"""Interleaved A/B runs of the benchmark: a parent revision against a change.

Each side is a fresh copy of src/, perfbench/ and BENCHMARK.json: the
parent from `git archive`, the change from the working tree (or from
--change REV), without any __pycache__.  perfbench/run.py runs in each
copy as a black box, for every pair of runs at one seed, parent first in
even pairs and change first in odd ones, so that drift in the host's
speed hits both sides alike.

Backends: on the C backend each copy builds kern.c on a first import
before any timed run; every run must then report backend=c.  The Python
backend runs in copies that never hold a library, with PATH pointing at
an empty directory, so `cc` cannot be found; every run must report
backend=python.  --backend both (the default) runs C when `cc` is on
PATH, then Python.

For each workload, backend and end-to-end metric the report gives the
median, quartiles (statistics.quantiles, method='inclusive'), extremes,
the number of pairs in which the change is better, the ratio of the
medians and the parent's interquartile range.  A side wins a metric only
if it is better in at least 90% of the pairs and its median is better by
more than the parent's interquartile range; otherwise "winner" is null.
Two identical trees should show no winner.

Run from the root of a checkout, with git on PATH:

    python benchmarks/ab.py --parent HEAD~1 --workload sweep-relu --pairs 10
    python benchmarks/ab.py --parent HEAD --change HEAD --workload logic \\
        --pairs 10 --seconds 5
    python benchmarks/ab.py --parent HEAD~1 --workload sweep-relu \\
        --workload logic --json BENCH.json
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREE = ("src", "perfbench", "BENCHMARK.json")
IGNORE = shutil.ignore_patterns("__pycache__", "out")
BACKEND_LINE = re.compile(r"^\s*backend=(\w+)", re.M)
PROBE = "import xorlab.kernels as k; print(k.BACKEND)"


def export(rev, dest: Path) -> Path:
    """Copy the benchmark's files of rev (None: the working tree) into
    dest."""
    dest.mkdir(parents=True)
    if rev is None:
        for name in TREE:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, dest / name, ignore=IGNORE)
            else:
                shutil.copy2(src, dest / name)
        return dest
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, *TREE],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def side_env(root: Path, backend: str, no_cc: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    if backend == "python":
        env["PATH"] = str(no_cc)
    return env


def prepare(root: Path, backend: str, no_cc: Path) -> None:
    """Import the copy once: on C this builds kern.c into its cache."""
    out = subprocess.run([sys.executable, "-c", PROBE], check=True,
                         capture_output=True, text=True, cwd=root,
                         env=side_env(root, backend, no_cc)).stdout.strip()
    if out != backend:
        raise SystemExit(f"error: {root} imports the {out} backend, "
                         f"not {backend}")


def run_once(root: Path, backend: str, no_cc: Path, workload: str,
             seed: int, seconds: int) -> dict:
    """One untraced perfbench run; returns its metrics and counts."""
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=root, env=side_env(root, backend, no_cc), capture_output=True,
        text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: perfbench exited {proc.returncode} in "
                         f"{root}:\n{proc.stderr}")
    ran = BACKEND_LINE.search(proc.stdout)
    if ran is None or ran.group(1) != backend:
        raise SystemExit(f"error: {root} ran "
                         f"{ran.group(1) if ran else 'no'} backend, "
                         f"not {backend}")
    doc = json.loads(lines[-1])
    return {"correct": doc["correct"], "attempted": doc["attempted"],
            "failed": doc["failed"],
            "metrics": {k: v["value"] for k, v in doc["metrics"].items()}}


def stats(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values)}


def compare(pairs, better: str) -> dict:
    """The summary of one metric over (parent, change) pairs."""
    parent, change = stats([p for p, _ in pairs]), stats([c for _, c in pairs])
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) < 0 for p, c in pairs)
    iqr = parent["q3"] - parent["q1"]
    gap = sign * (change["median"] - parent["median"])
    need = math.ceil(0.9 * len(pairs))
    winner = None
    if wins >= need and gap > iqr:
        winner = "change"
    elif losses >= need and -gap > iqr:
        winner = "parent"
    return {"parent": parent, "change": change,
            "change_better_pairs": wins,
            "median_ratio": change["median"] / parent["median"],
            "parent_iqr": iqr, "winner": winner,
            "pairs_parent_change": [list(pc) for pc in pairs]}


def summarize(runs, directions) -> dict:
    out = {}
    for (backend, workload), rows in runs.items():
        entry = {"backend": backend, "workload": workload,
                 "pairs": len(rows), "seeds": [r["seed"] for r in rows]}
        for name, better in directions.items():
            entry[name] = compare([(r["parent"]["metrics"][name],
                                    r["change"]["metrics"][name])
                                   for r in rows], better)
        for key in ("attempted", "failed"):
            entry[key] = {side: sum(r[side][key] for r in rows)
                          for side in ("parent", "change")}
        entry["correct"] = all(r[side]["correct"] for r in rows
                               for side in ("parent", "change"))
        out[f"{workload}/{backend}"] = entry
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True,
                    help="git revision of the parent side")
    ap.add_argument("--change", default=None,
                    help="git revision of the change side (default: the "
                         "working tree)")
    ap.add_argument("--workload", action="append", required=True,
                    help="a perfbench workload; repeat for more")
    ap.add_argument("--backend", choices=("both", "c", "python"),
                    default="both")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1,
                    help="pair i runs at seed + i (default 1)")
    ap.add_argument("--seconds", type=int, default=None,
                    help="perfbench --seconds (default: run_seconds of "
                         "BENCHMARK.json)")
    ap.add_argument("--json", metavar="PATH", default=None,
                    help="also write the report as JSON to PATH")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    directions = {m["name"]: m["better"] for m in spec["end_to_end"]}
    has_cc = shutil.which("cc") is not None
    backends = {"both": ("c", "python") if has_cc else ("python",),
                "c": ("c",), "python": ("python",)}[args.backend]
    if "c" in backends and not has_cc:
        ap.error("the C backend needs `cc` on PATH")

    runs = {}
    with tempfile.TemporaryDirectory(prefix="xorlab-ab-") as tmp:
        tmp = Path(tmp)
        no_cc = tmp / "no-cc"
        no_cc.mkdir()
        for backend in backends:
            sides = {side: export(rev, tmp / backend / side)
                     for side, rev in (("parent", args.parent),
                                       ("change", args.change))}
            for root in sides.values():
                prepare(root, backend, no_cc)
            for workload in args.workload:
                rows = runs[backend, workload] = []
                for i in range(args.pairs):
                    seed = args.seed + i
                    order = ("parent", "change") if i % 2 == 0 \
                        else ("change", "parent")
                    row = {"seed": seed, "first": order[0]}
                    for side in order:
                        row[side] = run_once(sides[side], backend, no_cc,
                                             workload, seed, seconds)
                    rows.append(row)
                    p, c = (row[s]["metrics"]["items_per_s"]
                            for s in ("parent", "change"))
                    print(f"{workload:10s} {backend:6s} pair {i} seed {seed}"
                          f": items_per_s parent {p:.6g} change {c:.6g}",
                          flush=True)

    summary = summarize(runs, directions)
    for key, entry in summary.items():
        print(f"== {key}: {entry['pairs']} pairs, correct "
              f"{entry['correct']}, failed {entry['failed']}")
        for name in directions:
            m = entry[name]
            print(f"   {name:12s} parent {m['parent']['median']:.6g} "
                  f"change {m['change']['median']:.6g} "
                  f"ratio {m['median_ratio']:.4f} "
                  f"change better {m['change_better_pairs']}/"
                  f"{entry['pairs']}, parent iqr {m['parent_iqr']:.4g}, "
                  f"winner {m['winner']}")
    if args.json:
        doc = {"description": (
                   f"benchmarks/ab.py: perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds} --trace 0 in a copy of "
                   f"{args.parent} (parent) and of "
                   f"{args.change or 'the working tree'} (change), pair i "
                   f"at seed {args.seed}+i, the parent first in even pairs "
                   f"and the change first in odd ones; backends "
                   f"{', '.join(backends)}."),
               "python": platform.python_version(),
               "libc": " ".join(platform.libc_ver()),
               "machine": platform.machine(), "nproc": os.cpu_count(),
               "summary": summary,
               "runs": {f"{w}/{b}": rows for (b, w), rows in runs.items()}}
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
