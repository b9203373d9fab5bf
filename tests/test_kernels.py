"""Backend contract: the compiled kernels, the generated pure-Python
kernels and the loop reference (loop_kernels.py) must agree bit for bit
on every exported operation.

The compiled backend comes from the ckern and c_package fixtures
(tests/conftest.py), which build kern.c with the system cc.  The loader
tests import copies of the package in new interpreters: the first import
builds kern.c into the package's __pycache__, later ones reuse it, and
anything that stops the build or the load selects python silently."""

import math
import os
import random
import shutil
import struct
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loop_kernels
from xorlab import _pycore, copula, kernels, trainer
from xorlab.datasets import builtin
from xorlab.errors import DomainError
from xorlab.trainer import TrainConfig, sweep

XOR_XS = [0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]
XOR_TS = [0.0, 1.0, 1.0, 0.0]

# (sizes, activation codes) battery covering depth and every activation
CASES = [
    ([2, 2, 1], [1, 1]),          # tanh-tanh
    ([2, 2, 1], [3, 3]),          # relu-relu
    ([2, 3, 1], [2, 1]),          # sigmoid-tanh
    ([2, 2, 2, 1], [0, 1, 3]),    # id-tanh-relu
    ([2, 9, 1], [2, 0]),          # sigmoid-id, wide
    ([2, 4, 4, 1], [1, 3, 2]),    # tanh-relu-sigmoid
    ([2, 3, 2], [1, 2]),          # tanh-sigmoid, two outputs (the first
                                  # is trained, the second's delta is 0)
]


def test_backend_selection():
    assert kernels.BACKEND in ("c", "python")
    assert "python" in kernels.available_backends()
    py = kernels.get_backend("python")
    assert py.BACKEND == "python"
    for name in ("fortran", "pure", "compiled", "C", " c"):
        with pytest.raises(DomainError):
            kernels.get_backend(name)


def _run_kernels(package, code, prefix=(), **env):
    """stdout of code run in a new interpreter that imports xorlab from
    package, under the argv prefix and with env added; it must print
    nothing to stderr."""
    env = dict(os.environ, PYTHONPATH=str(package), **env)
    out = subprocess.run([*prefix, sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stderr == ""
    return out.stdout.strip()


LOADER = ("import sys, xorlab.kernels as k; print(k.BACKEND, "
          "k.available_backends(), 'ctypes' in sys.modules)")
needs_cc = pytest.mark.skipif(shutil.which("cc") is None,
                              reason="no C compiler: `cc` is not on PATH")


def _cached(package):
    """The libraries built into package's cache, by name."""
    return sorted((package / "xorlab" / "__pycache__").glob("_kern-*.so"))


def test_built_library_selects_c(c_package):
    code = ("import xorlab.kernels as k; print(k.BACKEND, "
            "k.available_backends())")
    assert _run_kernels(c_package, code) == "c ('c', 'python')"


def test_no_library_selects_python_without_ctypes(bare_package):
    # no compiler on PATH, so nothing can be built
    assert (_run_kernels(bare_package, LOADER, PATH=str(bare_package / "no"))
            == "python ('python',) False")
    assert _cached(bare_package) == []


@needs_cc
def test_first_import_builds_the_library(bare_package):
    assert _run_kernels(bare_package, LOADER) == "c ('c', 'python') True"
    (lib,) = _cached(bare_package)
    with open(bare_package / "xorlab" / "kern.c", "rb") as fh:
        assert lib.name == kernels.cache_name(fh.read())


@needs_cc
def test_second_import_reuses_the_cached_library(bare_package):
    _run_kernels(bare_package, LOADER)
    (lib,) = _cached(bare_package)
    before = lib.stat()
    # without cc on PATH a compile would fail, and select python
    assert (_run_kernels(bare_package, LOADER, PATH=str(bare_package / "no"))
            == "c ('c', 'python') True")
    after = lib.stat()
    assert _cached(bare_package) == [lib]
    assert ((after.st_ino, after.st_mtime_ns)
            == (before.st_ino, before.st_mtime_ns))


@needs_cc
def test_broken_source_selects_python_silently(bare_package):
    (bare_package / "xorlab" / "kern.c").write_text("not C at all\n")
    assert _run_kernels(bare_package, LOADER) == "python ('python',) False"
    assert _cached(bare_package) == []
    # the reason reaches a logger configured to show it
    code = ("import logging; logging.basicConfig(level=logging.DEBUG); "
            "import xorlab.kernels")
    env = dict(os.environ, PYTHONPATH=str(bare_package))
    log = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stderr
    assert "compiled kernels unavailable" in log
    assert "CalledProcessError" in log


def _obeying_file_modes():
    """An argv prefix under which the process cannot write where the file
    modes say it may not; root ignores them unless it drops the
    capabilities that override them."""
    if os.geteuid() != 0:
        return ()
    setpriv = shutil.which("setpriv")
    if setpriv is None:
        pytest.skip("root ignores file modes, and no setpriv to drop that")
    caps = "-dac_override,-dac_read_search"
    return (setpriv, f"--inh-caps={caps}", f"--bounding-set={caps}")


@needs_cc
def test_read_only_cache_selects_python(bare_package):
    cache = bare_package / "xorlab" / "__pycache__"
    cache.mkdir(mode=0o555)
    try:
        assert (_run_kernels(bare_package, LOADER, _obeying_file_modes())
                == "python ('python',) False")
    finally:
        cache.chmod(0o755)
    assert _cached(bare_package) == []


@needs_cc
def test_changed_source_gets_a_new_cache_key(bare_package):
    _run_kernels(bare_package, LOADER)
    (old,) = _cached(bare_package)
    with open(bare_package / "xorlab" / "kern.c", "a") as fh:
        fh.write("/* edited */\n")
    assert _run_kernels(bare_package, LOADER) == "c ('c', 'python') True"
    (new,) = _cached(bare_package)
    assert new != old


@needs_cc
def test_library_outside_the_cache_is_ignored(bare_package):
    # a library file beside the modules is neither loaded nor touched
    stray = bare_package / "xorlab" / "_kern.so"
    stray.write_bytes(b"not a library\n")
    assert _run_kernels(bare_package, LOADER) == "c ('c', 'python') True"
    assert len(_cached(bare_package)) == 1
    assert stray.read_bytes() == b"not a library\n"


# kern.c's numeric policies by macro name, from their one Python home
KERN_C_POLICIES = {
    "SSE_BLOWUP": _pycore.SSE_BLOWUP, "REST_EVERY": _pycore._REST_EVERY,
    "PLATEAU_TOL": _pycore._PLATEAU_TOL, "UNIT_EPS": copula.UNIT_EPS,
    "ZERO_DISPATCH": copula.ZERO_DISPATCH,
    "INF_DISPATCH": copula.INF_DISPATCH, "ONE_WINDOW": copula.ONE_WINDOW,
}


@needs_cc
def test_defines_give_c_the_python_values(tmp_path):
    # a C program built with the defines prints each macro as C reads it;
    # -Werror=format makes REST_EVERY an int, as kern.c counts epochs
    probe = tmp_path / "probe.c"
    probe.write_text("#include <stdio.h>\nint main(void)\n{\n" + "".join(
        f'    printf("{name} %d\\n", {name});\n' if name == "REST_EVERY"
        else f'    printf("{name} %.17g\\n", (double)({name}));\n'
        for name in KERN_C_POLICIES) + "    return 0;\n}\n")
    exe = tmp_path / "probe"
    subprocess.run(["cc", "-Werror=format", *kernels.DEFINES, "-o", str(exe),
                    str(probe)], check=True, capture_output=True)
    out = subprocess.run([str(exe)], check=True, capture_output=True,
                         text=True).stdout
    got = dict(line.split() for line in out.splitlines())
    assert {k: float(v) for k, v in got.items()} == KERN_C_POLICIES
    assert len(kernels.DEFINES) == len(KERN_C_POLICIES)


@needs_cc
def test_kern_c_needs_the_defines(tmp_path):
    # kern.c keeps no copy of the values: without the defines every one
    # of them is undeclared
    flags = [f for f in kernels.CFLAGS if f not in kernels.DEFINES]
    assert len(flags) == len(kernels.CFLAGS) - len(kernels.DEFINES)
    src = Path(kernels.__file__).parent / "kern.c"
    run = subprocess.run(["cc", *flags, "-o", str(tmp_path / "kern.so"),
                          str(src), *kernels.LIBS], capture_output=True,
                         text=True, env=dict(os.environ, LC_ALL="C"))
    assert run.returncode != 0
    for name in KERN_C_POLICIES:
        # gcc's message, or clang's
        assert (f"'{name}' undeclared" in run.stderr
                or f"undeclared identifier '{name}'" in run.stderr), name


def test_cache_name_keys_on_the_defines(monkeypatch):
    # a value changed in Python names another library, so a stale build
    # of the old value is never loaded
    source = b"/* kern.c */\n"
    names = {kernels.cache_name(source)}
    flags = kernels.CFLAGS
    for define in kernels.DEFINES:
        name = define.partition("=")[0]
        monkeypatch.setattr(kernels, "CFLAGS", tuple(
            f"{name}=0" if f == define else f for f in flags))
        names.add(kernels.cache_name(source))
    assert len(names) == 1 + len(kernels.DEFINES)


def test_sse_dataset_parity(ckern):
    py = kernels.get_backend("python")
    for sizes, acts in CASES:
        nw = sum(sizes[l + 1] * (sizes[l] + 1) for l in range(len(sizes) - 1))
        w = [((k * 37) % 11 - 5) / 7.0 for k in range(nw)]
        got_c = ckern.sse_dataset(sizes, acts, w, XOR_XS, XOR_TS)
        got_py = py.sse_dataset(sizes, acts, w, XOR_XS, XOR_TS)
        assert repr(got_c) == repr(got_py)   # bitwise, and one type


@pytest.mark.parametrize("per_sample", [1, 0])
@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(map(str, c[0])))
def test_train_run_parity(case, per_sample, ckern):
    sizes, acts = case
    py = kernels.get_backend("python")
    for seed in (0, 7):
        args = (sizes, acts, XOR_XS, XOR_TS, 0.3, 120, 1e-3, per_sample,
                seed, 1.0, 1)
        wc, ic, sc, stc, tc = ckern.train_run(*args)
        wp, ip, sp, stp, tp = py.train_run(*args)
        assert list(wc) == list(wp)
        assert (ic, stc) == (ip, stp)
        assert sc == sp
        assert list(tc) == list(tp)


def test_project_grid_parity(ckern):
    py = kernels.get_backend("python")
    sizes, acts = [2, 2, 1], [1, 1]
    w = [0.1, -0.1, 0.2, -0.2, 0.3, 0.1, -0.4, -0.2, 0.3]
    avals = [-2.0 + i * 0.5 for i in range(9)]
    bvals = [-1.0 + i * 0.25 for i in range(9)]
    got_c = ckern.project_grid(sizes, acts, w, XOR_XS, XOR_TS, 0, 5,
                               avals, bvals)
    got_py = py.project_grid(sizes, acts, w, XOR_XS, XOR_TS, 0, 5,
                             avals, bvals)
    # repr, as perfbench's parity check compares: the type counts too
    assert repr(got_c) == repr(got_py)
    assert len(got_c) == 81


def test_status_codes():
    py = kernels.get_backend("python")
    sizes, acts = [2, 2, 1], [0, 0]
    # a linearly representable target converges (status 0)
    lin_xs = [0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.5, 0.5]
    lin_ts = [0.1, 0.3, 0.4, 0.6, 0.35]
    _, _, sse, status, _ = py.train_run(sizes, acts, lin_xs, lin_ts,
                                        0.05, 5000, 1e-3, 0, 3, 1.0, 0)
    assert status == 0 and sse < 1e-3
    # xor through a linear net cannot reach the tolerance (status 1)
    _, iters, sse, status, _ = py.train_run(sizes, acts, XOR_XS, XOR_TS,
                                            0.1, 50, 1e-3, 1, 3, 1.0, 0)
    assert status == 1 and iters == 50 and sse > 0.9
    # absurd learning rate blows past the SSE bound (status 2)
    _, _, sse, status, _ = py.train_run(sizes, acts, XOR_XS, XOR_TS,
                                        100.0, 1000, 1e-3, 0, 3, 1.0, 0)
    assert status == 2 and sse > kernels.SSE_BLOWUP and math.isfinite(sse)
    # overflow to non-finite state (status 3)
    _, _, sse, status, _ = py.train_run(sizes, acts, XOR_XS, XOR_TS,
                                        1e200, 1000, 1e-3, 0, 3, 1.0, 0)
    assert status == 3 and not math.isfinite(sse)


def test_status_codes_parity_on_wild_configs(ckern):
    py = kernels.get_backend("python")
    for lr in (100.0, 1e10, 1e100, 1e200):
        for seed in (3, 9):
            args = ([2, 2, 1], [0, 0], XOR_XS, XOR_TS, lr, 200, 1e-3, 0,
                    seed, 1.0, 0)
            wc, ic, sc, stc, _ = ckern.train_run(*args)
            wp, ip, sp, stp, _ = py.train_run(*args)
            assert (ic, stc) == (ip, stp)
            assert (sc == sp) or (math.isnan(sc) and math.isnan(sp))
            assert all((a == b) or (math.isnan(a) and math.isnan(b))
                       for a, b in zip(wc, wp))


def test_trajectory_recording():
    py = kernels.get_backend("python")
    _, iters, sse, _, traj = py.train_run([2, 2, 1], [1, 1], XOR_XS, XOR_TS,
                                          0.5, 40, 1e-12, 1, 5, 1.0, 1)
    assert len(traj) == iters == 40
    assert traj[-1] == sse
    _, _, _, _, empty = py.train_run([2, 2, 1], [1, 1], XOR_XS, XOR_TS,
                                     0.5, 40, 1e-12, 1, 5, 1.0, 0)
    assert list(empty) == []


def test_c_backend_checks_arguments(ckern):
    # ctypes would wrap an int too large for a C int, and the C side
    # trusts its buffers: both are checked before the call
    args = dict(sizes=[2, 2, 1], acts=[1, 1], xs=XOR_XS, ts=XOR_TS, lr=0.5,
                max_iters=40, tol=1e-3, per_sample=1, seed=5, init_range=1.0,
                record=0)
    for key, value in (("max_iters", 2**31), ("sizes", [2, 2**32 + 2, 1]),
                       ("acts", [1, 2**31])):
        with pytest.raises(OverflowError):
            ckern.train_run(**dict(args, **{key: value}))
    w = [0.1] * 9
    with pytest.raises(IndexError):
        ckern.project_grid([2, 2, 1], [1, 1], w, XOR_XS, XOR_TS, 0, 9,
                           [0.0], [0.0])
    with pytest.raises(IndexError):
        ckern.sse_dataset([2, 2, 1], [1, 1], w[:8], XOR_XS, XOR_TS)
    with pytest.raises(ValueError):
        ckern.sse_dataset([2, 0, 1], [1, 1], w, XOR_XS, XOR_TS)


@pytest.mark.parametrize("backend", ["python", "c"])
def test_trajectory_grows_with_iterations_run(backend, request):
    # the largest max_iters a C int holds; the run converges at once, so
    # only the iterations actually run may be stored
    mod = (request.getfixturevalue("ckern") if backend == "c"
           else kernels.get_backend("python"))
    _, iters, sse, status, traj = mod.train_run(
        [2, 2, 1], [1, 1], XOR_XS, XOR_TS, 0.5, 2**31 - 1, 10.0, 1, 5, 1.0, 1)
    assert (iters, status, traj) == (1, 0, [sse])


# -- the generated Python kernels and C against the loop reference ----------

SEEDS = (0, 1, 7, 2**63, 2**64 - 1, -5)


def _n_weights(sizes):
    return sum(sizes[l + 1] * (sizes[l] + 1) for l in range(len(sizes) - 1))


def _same_train_run(mod, *args):
    assert repr(mod.train_run(*args)) == repr(loop_kernels.train_run(*args))


@pytest.mark.parametrize("per_sample", [1, 0])
@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(map(str, c[0])))
def test_train_run_matches_loop_reference(case, per_sample, kern):
    sizes, acts = case
    for record in (0, 1):
        for seed in SEEDS:
            _same_train_run(kern, sizes, acts, XOR_XS, XOR_TS, 0.3, 120,
                            1e-3, per_sample, seed, 1.0, record)


@pytest.mark.parametrize("code", [0, 1, 2, 3])
def test_wild_lr_status_matches_loop_reference(code, kern):
    for sizes in ([2, 2, 1], [2, 3, 2]):
        for lr in (100.0, 1e10, 1e100, 1e200):
            for seed in (3, 9):
                for per_sample in (0, 1):
                    _same_train_run(kern, sizes, [code, code], XOR_XS,
                                    XOR_TS, lr, 200, 1e-3, per_sample, seed,
                                    1.0, 1)


def test_random_datasets_match_loop_reference(kern):
    rng = random.Random(20)
    for _ in range(40):
        n = rng.randint(0, 7)
        xs = [rng.uniform(-2.0, 2.0) for _ in range(2 * n)]
        ts = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        acts = [rng.randint(0, 3), rng.randint(0, 3)]
        _same_train_run(kern, [2, 3, 1], acts, xs, ts, 0.2, 60, 1e-4,
                        rng.randint(0, 1), rng.getrandbits(64), 1.0, 1)


def _slot_pairs(n_slots):
    """Every (ia, ib) over range(n_slots), ia == ib included, and each
    negative slot against slot 0, itself and slot -1."""
    slots = range(n_slots)
    pairs = [(ia, ib) for ia in slots for ib in slots]
    for s in range(-n_slots, 0):
        pairs += [(s, 0), (0, s), (s, s), (s, -1)]
    return pairs


# loop-reference grids shared by both backends' runs of the slot sweep
_REFERENCE_GRIDS = {}


@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(map(str, c[0])))
def test_grid_and_sse_match_loop_reference(case, kern):
    sizes, acts = case
    n = _n_weights(sizes)
    w = [((k * 37) % 11 - 5) / 7.0 for k in range(n)]
    # sse_dataset is the grid cell that writes w[0] back into slot 0: a
    # signed zero, NaN or infinity there or in the last slot, and
    # trailing weights past the network, leave it the loop reference's
    weight_sets = [w, [-0.0] * n + [math.inf]] + [
        w[:k] + [special] + w[k + 1:] + extra
        for special in (-0.0, math.nan, math.inf, -math.inf)
        for k in (0, n - 1) for extra in ([], [special], [7.0, math.nan])]
    for ws in weight_sets:
        assert (repr(kern.sse_dataset(sizes, acts, ws, XOR_XS, XOR_TS))
                == repr(loop_kernels.sse_dataset(sizes, acts, ws, XOR_XS,
                                                 XOR_TS))), ws
    axis = [-3.0 + 0.75 * k for k in range(9)]
    for ia, ib in ((0, n - 1), (n - 1, 0), (1, -1)):
        args = (sizes, acts, w, XOR_XS, XOR_TS, ia, ib, axis, axis[:5])
        assert (repr(list(kern.project_grid(*args)))
                == repr(loop_kernels.project_grid(*args)))
    # every slot pair, two scratch slots past the network included, on
    # axes holding NaN, inf and -0.0
    wide = w + [4.0, -4.0]
    avals, bvals = [-3.0, math.nan, 0.75], [-0.0, math.inf]
    for ia, ib in _slot_pairs(len(wide)):
        args = (sizes, acts, wide, XOR_XS, XOR_TS, ia, ib, avals, bvals)
        key = (tuple(sizes), tuple(acts), ia, ib)
        if key not in _REFERENCE_GRIDS:
            _REFERENCE_GRIDS[key] = repr(loop_kernels.project_grid(*args))
        assert repr(list(kern.project_grid(*args))) == _REFERENCE_GRIDS[key], \
            key


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=2, max_size=4),
       st.lists(st.integers(0, 3), min_size=3, max_size=3),
       st.integers(0, 2**64 - 1), st.booleans(),
       st.integers(0, 2**16), st.integers(0, 2**16))
def test_random_shapes_match_loop_reference(kern, sizes, codes, seed,
                                            per_sample, draw_a, draw_b):
    # depth 1-3, every width (input and output too) 1-5, codes 0-3
    acts = codes[:len(sizes) - 1]
    rng = random.Random(seed)
    xs = [rng.uniform(-1.5, 1.5) for _ in range(3 * sizes[0])]
    ts = [rng.uniform(-1.0, 1.0) for _ in range(3)]
    n = _n_weights(sizes)
    w = [rng.uniform(-2.0, 2.0) for _ in range(n + 1)]
    axis = [-1.0, 0.25, 2.0]
    _same_train_run(kern, sizes, acts, xs, ts, 0.4, 15, 1e-6, per_sample,
                    seed, 1.0, 1)
    assert (repr(kern.sse_dataset(sizes, acts, w, xs, ts))
            == repr(loop_kernels.sse_dataset(sizes, acts, w, xs, ts)))
    # a slot pair anywhere in w, negative and scratch slots included
    ia = draw_a % (2 * (n + 1)) - (n + 1)
    ib = draw_b % (2 * (n + 1)) - (n + 1)
    args = (sizes, acts, w, xs, ts, ia, ib, axis, axis)
    assert (repr(list(kern.project_grid(*args)))
            == repr(loop_kernels.project_grid(*args)))


def _levels_by_definition(sizes, ia, ib):
    """Each unit's loop level: the highest slot level (1 for ia, 2 for
    ib, which wins when the two are equal) over its own weight row and
    the rows of every unit below it."""
    slot_level = {ia: 1, ib: 2}
    rows, start = [], 0         # (layer, slots of the weight row)
    for l in range(1, len(sizes)):
        for _ in range(sizes[l]):
            rows.append((l, range(start, start + sizes[l - 1] + 1)))
            start += sizes[l - 1] + 1
    return [max(slot_level.get(k, 0) for m, row in rows
                if m < l or row == own for k in row)
            for l, own in rows]


@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(map(str, c[0])))
def test_grid_levels_match_their_definition(case):
    sizes, _ = case
    slots = range(_n_weights(sizes) + 2)      # two scratch slots
    for ia, ib in _slot_pairs(len(slots)):
        ia, ib = slots[ia], slots[ib]
        assert (_pycore.grid_levels(sizes, ia, ib)
                == _levels_by_definition(sizes, ia, ib)), (ia, ib)


# (ia, ib, tanh calls) of a 2-2-1 tanh grid over 3 a values and 5 b
# values: tanh runs once per unit and sample, so 4 samples give 4 per unit
# computed before the loops, 12 per unit computed per a value and
# 3 * 5 * 4 = 60 per unit computed per cell
HOISTED = [
    (0, 6, 4 + 12 + 60),    # unit 2 before the loops, unit 1 per a value
    (6, 7, 8 + 60),         # both hidden units before the loops
    (0, 3, 12 + 60 + 60),   # unit 1 per a value, unit 2 per cell
    (0, 0, 4 + 60 + 60),    # a == b: b wins, so nothing runs per a value
    (9, 9, 12),             # scratch slots: every unit once
    (0, 9, 4 + 12 + 12),    # b is a scratch slot: the output per a value
]
HOIST_W = [0.1, -0.1, 0.2, -0.2, 0.3, 0.1, -0.4, -0.2, 0.3, 0.0]
HOIST_AXES = ([-1.0, 0.0, 1.0], [-2.0, -1.0, 0.0, 1.0, 2.0])


@pytest.mark.parametrize("ia, ib, calls", HOISTED)
def test_project_grid_hoists_units_out_of_the_loops(monkeypatch, ia, ib,
                                                    calls):
    count = []

    def tanh(z):
        count.append(z)
        return math.tanh(z)

    monkeypatch.setitem(_pycore._NAMESPACE, "tanh", tanh)
    _pycore._grid_kernel.cache_clear()
    args = ([2, 2, 1], [1, 1], HOIST_W, XOR_XS, XOR_TS, ia, ib, *HOIST_AXES)
    assert repr(list(_pycore.project_grid(*args))) == repr(
        loop_kernels.project_grid(*args))
    _pycore._grid_kernel.cache_clear()
    assert len(count) == calls


# force-included ahead of kern.c's first line: every tanh call of the
# library is counted in kern_tanh_calls
_COUNT_TANH = """#include <math.h>
long long kern_tanh_calls;
static double counted_tanh(double z)
{
    kern_tanh_calls++;
    return tanh(z);
}
#define tanh counted_tanh
"""


def _variant_library(c_package, tmp, prelude):
    """The path of a build, in tmp, of c_package's kern.c with the C
    text prelude force-included ahead of its first line."""
    header, lib = tmp / "prelude.h", tmp / "kern_variant.so"
    header.write_text(prelude)
    subprocess.run(["cc", *kernels.CFLAGS, "-include", str(header), "-o",
                    str(lib), str(c_package / "xorlab" / "kern.c"),
                    *kernels.LIBS], check=True, capture_output=True)
    return str(lib)


@pytest.fixture(scope="session")
def counting_ckern(c_package, tmp_path_factory):
    """The compiled backend of a build of c_package's kern.c that counts
    its tanh calls, and that count as a ctypes c_longlong."""
    import ctypes
    from xorlab import _cbackend
    lib = _variant_library(c_package, tmp_path_factory.mktemp("counting"),
                           _COUNT_TANH)
    calls = ctypes.c_longlong.in_dll(ctypes.CDLL(lib), "kern_tanh_calls")
    return _cbackend.load(lib), calls


@pytest.mark.parametrize("ia, ib, calls", HOISTED)
def test_compiled_project_grid_hoists_units_as_python_does(counting_ckern,
                                                          ia, ib, calls):
    # kern.c runs each unit at the loop level _pycore.grid_levels gives
    # it, the list the generated Python kernel is laid out from, so both
    # evaluate tanh equally often
    kern, tanh_calls = counting_ckern
    tanh_calls.value = 0
    args = ([2, 2, 1], [1, 1], HOIST_W, XOR_XS, XOR_TS, ia, ib, *HOIST_AXES)
    assert repr(list(kern.project_grid(*args))) == repr(
        loop_kernels.project_grid(*args))
    assert tanh_calls.value == calls


def test_sweep_generates_the_kernel_once(monkeypatch):
    monkeypatch.setattr(kernels, "train_run", _pycore.train_run)
    _pycore._train_kernel.cache_clear()
    sweep("2-2-1/inp-relu-relu", builtin("boolean_xor"),
          TrainConfig(seed=3, max_iters=200), 5)
    info = _pycore._train_kernel.cache_info()
    assert (info.misses, info.hits) == (1, 4)


def test_all_pairs_builds_one_kernel_per_pair(monkeypatch, tmp_path):
    from xorlab.cli import main
    from xorlab.linalg import Matrix
    from xorlab.network import Network, parse_spec, save_model
    monkeypatch.setattr(kernels, "project_grid", _pycore.project_grid)
    _pycore._train_kernel.cache_clear()
    _pycore._grid_kernel.cache_clear()
    run = _pycore._train_kernel((2, 2, 1), (1, 1), True)
    model = tmp_path / "tanh.json"
    save_model(Network(parse_spec("2-2-1/inp-tanh-tanh"), (
        Matrix.from_rows([[0.1, -0.1, 0.2], [-0.2, 0.3, 0.1]]),
        Matrix.from_rows([[-0.4, -0.2, 0.3]]))), model)
    assert main(["surface", "all-pairs", "--model", str(model), "--data",
                 "boolean_xor", "--steps", "3", "--out-dir",
                 str(tmp_path / "grids")]) == 0
    info = _pycore._grid_kernel.cache_info()
    assert (info.misses, info.hits, info.currsize) == (36, 0, 36)
    assert _pycore._train_kernel((2, 2, 1), (1, 1), True) is run
    assert _pycore._train_kernel.cache_info().hits == 1


def test_generated_code_names_its_shape():
    run = _pycore._train_kernel((2, 2, 1), (3, 3), True)
    assert (run.__code__.co_filename
            == "<xorlab train_run 2-2-1 relu-relu per_sample>")
    grid = _pycore._grid_kernel((2, 2, 1), (1, 1), 0, 6)
    assert (grid.__code__.co_filename
            == "<xorlab project_grid 2-2-1 tanh-tanh a=w0 b=w6>")
    grid = _pycore._grid_kernel((2, 3, 1), (2, 0), 13, 12)
    assert (grid.__code__.co_filename
            == "<xorlab project_grid 2-3-1 sigmoid-id a=w13 b=w12>")
    fwd = _pycore._net_pass("forward", (2, 2, 1), (1, 1))
    assert fwd.__code__.co_filename == "<xorlab forward 2-2-1 tanh-tanh>"
    lattice = _pycore._net_pass("forward_lattice", (2, 2, 1), (1, 1))
    assert (lattice.__code__.co_filename
            == "<xorlab forward_lattice 2-2-1 tanh-tanh>")
    grad = _pycore._net_pass("gradient", (2, 9, 1), (3, 0))
    assert grad.__code__.co_filename == "<xorlab gradient 2-9-1 relu-id>"


# -- one shape check for both backends ----------------------------------------

def test_both_backends_check_shapes(kern):
    w = [0.1] * 9
    for sizes, acts in (([2, 0, 1], [1, 1]), ([2], [1]), ([2, 2, 1], [1])):
        with pytest.raises(ValueError, match="not a network"):
            kern.sse_dataset(sizes, acts, w, XOR_XS, XOR_TS)
        with pytest.raises(ValueError, match="not a network"):
            kern.train_run(sizes, acts, XOR_XS, XOR_TS, 0.5, 5, 1e-3, 1, 0,
                          1.0, 0)
        with pytest.raises(ValueError, match="not a network"):
            kern.project_grid(sizes, acts, w, XOR_XS, XOR_TS, 0, 1, [0.0],
                             [0.0])
    with pytest.raises(IndexError):
        kern.train_run([2, 2, 1], [1, 1], XOR_XS[:7], XOR_TS, 0.5, 5, 1e-3,
                      1, 0, 1.0, 0)
    with pytest.raises(IndexError):
        kern.sse_dataset([2, 2, 1], [1, 1], w[:8], XOR_XS, XOR_TS)
    for ia, ib in ((9, 0), (0, -10), (11, 2)):
        with pytest.raises(IndexError):
            kern.project_grid([2, 2, 1], [1, 1], w, XOR_XS, XOR_TS, ia, ib,
                             [0.0, 1.0], [0.5])
    # extra weights are ignored, also when a grid slot points at one
    assert (kern.sse_dataset([2, 2, 1], [1, 1], w + [5.0], XOR_XS, XOR_TS)
            == kern.sse_dataset([2, 2, 1], [1, 1], w, XOR_XS, XOR_TS))
    base = kern.sse_dataset([2, 2, 1], [1, 1], w, XOR_XS, XOR_TS)
    grid = kern.project_grid([2, 2, 1], [1, 1], w + [5.0, 6.0], XOR_XS,
                             XOR_TS, 9, -1, [0.0, 1.0], [2.0])
    assert list(grid) == [base, base]


# -- train_run stops once its weights are at rest ------------------------------

RELU = ([2, 2, 1], [3, 3])
XOR_DATA = list(zip(XOR_XS[0::2], XOR_XS[1::2], XOR_TS))
# loop-reference runs shared by both backends
_REFERENCE_RUNS = {}


def _at_rest(sizes, acts, per_sample, lr, w):
    """The generated check of train_run's source, on chosen weights."""
    run = _pycore._train_kernel(tuple(sizes), tuple(acts), per_sample)
    return run.__globals__["at_rest"](XOR_DATA, lr, *w)


def _same_run_at_rest(mod, per_sample, seed, max_iters, record, lr=0.1):
    args = (*RELU, XOR_XS, XOR_TS, lr, max_iters, 1e-3, per_sample, seed,
            1.0, record)
    key = (per_sample, seed, max_iters, record, lr)
    if key not in _REFERENCE_RUNS:
        _REFERENCE_RUNS[key] = repr(loop_kernels.train_run(*args))
    got = mod.train_run(*args)
    assert repr(got) == _REFERENCE_RUNS[key], key
    return got


# relu 2-2-1 at lr 0.1, per sample: seed 2 is at rest after epoch 1, seed
# 3 first at the epoch-256 check (its SSE settles at epoch 56), seed 4
# first at the epoch-512 check (its SSE settles at epoch 220)
@pytest.mark.parametrize("seed, rest", [(2, 1), (3, 256), (4, 512)])
def test_train_run_at_rest_matches_loop_reference(seed, rest, kern):
    for record in (0, 1):
        w, iters, sse, status, traj = _same_run_at_rest(kern, 1, seed, 1000,
                                                        record)
        assert (iters, status) == (1000, 1)
        assert _at_rest(*RELU, True, 0.1, w)
        assert traj[rest - 1:] == ([sse] * (1001 - rest) if record else [])


def test_full_batch_at_rest_matches_loop_reference(kern):
    flat = 0
    for seed in range(20):
        w, _, sse, status, traj = _same_run_at_rest(kern, 0, seed, 1600, 1)
        flat += traj == [sse] * 1600
        assert status != 1 or _at_rest(*RELU, False, 0.1, w), seed
    assert flat == 12


@pytest.mark.parametrize("max_iters", [1, 255, 256, 257])
def test_at_rest_exit_at_each_max_iters(max_iters, kern):
    for per_sample in (1, 0):
        for seed in (2, 3):
            for record in (0, 1):
                _same_run_at_rest(kern, per_sample, seed, max_iters, record)


def _draws(monkeypatch, *args):
    """train_run's result on the Python backend, and the splitmix64 draws
    it took: nine for the init, then three shuffle draws per epoch."""
    count = []

    class Counted(_pycore._SplitMix):
        def next_u64(self):
            count.append(1)
            return super().next_u64()

    monkeypatch.setitem(_pycore._NAMESPACE, "_SplitMix", Counted)
    _pycore._train_kernel.cache_clear()
    try:
        return _pycore.train_run(*args), len(count)
    finally:
        _pycore._train_kernel.cache_clear()


def test_train_run_stops_once_at_rest(monkeypatch):
    args = (*RELU, XOR_XS, XOR_TS, 0.1, 10000, 1e-3, 1, 2, 1.0, 1)
    got, draws = _draws(monkeypatch, *args)
    assert draws == 9 + 3
    assert repr(got) == repr(loop_kernels.train_run(*args))
    # seed 3 runs to the check after epoch 256
    _, draws = _draws(monkeypatch, *args[:8], 3, 1.0, 0)
    assert draws == 9 + 3 * 256


def test_tanh_run_is_never_at_rest(monkeypatch):
    args = ([2, 2, 1], [1, 1], XOR_XS, XOR_TS, 0.5, 600, 1e-12, 1, 5, 1.0,
            1)
    got, draws = _draws(monkeypatch, *args)
    assert (got[1], got[3], draws) == (600, 1, 9 + 3 * 600)
    assert repr(got) == repr(loop_kernels.train_run(*args))


def test_at_rest_tells_the_sign_of_zero():
    # dead hidden units and a dead output: every delta is +-0.0, so each
    # weight stays, but the output bias -0.0 minus lr * -0.0 is +0.0
    w = [-1.0] * 6 + [0.5, 0.5, -0.0]
    assert not _at_rest(*RELU, True, 0.1, w)
    assert _at_rest(*RELU, True, 0.1, w[:8] + [0.0])
    # summed over the samples in order, the bias's partial is +0.0
    assert _at_rest(*RELU, False, 0.1, w)
    # hidden unit 0 and the output are alive at the sample (1, 0)
    assert not _at_rest(*RELU, True, 0.1, [1.0, -1.0, 0.0] + w[3:8] + [0.0])


# -- the F_s fit's scorer: the fs_deviation kernel against the Python twin --

def _fs_cases(n_lattices=300, per_lattice=10, seed=23):
    """3,000 drawn (outs, axis, s): grids 2, 3, 5, 21 and 64, outputs in
    [-0.2, 1.2], and per lattice ten s from t drawn in [0.0101, 0.99],
    from the 49 scan points and from the One window t = 0.5 +- 3e-7,
    as classify passes them: s = t / (1 - t), which the scorer snaps."""
    rng = random.Random(seed)
    scan = [k / 50.0 for k in range(1, 50)]
    for _ in range(n_lattices):
        grid = rng.choice([2, 3, 5, 21, 64])
        axis = trainer._axis(grid)
        outs = [rng.uniform(-0.2, 1.2) for _ in range(grid * grid)]
        ts = [rng.choice((rng.uniform(0.0101, 0.99), rng.choice(scan),
                          0.5 + rng.uniform(-3e-7, 3e-7)))
              for _ in range(per_lattice)]
        yield outs, axis, [t / (1.0 - t) for t in ts]


def _scored(score, s):
    """repr of score(s), or the type and message of the error raised."""
    try:
        return repr(score(s))
    except DomainError as err:
        return f"{type(err).__name__}: {err}"


def test_fs_scorer_parity_on_drawn_lattices(ckern):
    py = kernels.get_backend("python")
    n, scanned = 0, set()
    for outs, axis, ss in _fs_cases():
        c_score, py_score = (ckern.fs_scorer(outs, axis),
                             py.fs_scorer(outs, axis))
        for s in ss:
            assert _scored(c_score, s) == _scored(py_score, s), (axis, s)
            n += 1
        if axis not in scanned:     # the whole scan, once per grid
            scanned.add(axis)
            assert repr([c_score(s) for s in trainer._SCAN_S]) == \
                repr([py_score(s) for s in trainer._SCAN_S])
    assert n == 3000 and len(scanned) == 5


def test_fs_scorer_parity_beyond_the_kernel_range(ckern):
    # the One window's interior and edge, the dispatch thresholds, the
    # limits and the s <= 0 and NaN that raise: kern.c's fs_deviation
    # evaluates (or refuses) each s itself, as xor_f_lattice does
    py = kernels.get_backend("python")
    inside = 1.0 + copula.ONE_WINDOW
    outside = math.nextafter(inside, 2.0)
    assert abs(inside - 1.0) <= copula.ONE_WINDOW < abs(outside - 1.0)
    axis = trainer._axis(21)
    rng = random.Random(5)
    outs = [rng.uniform(-0.2, 1.2) for _ in range(21 * 21)]
    c_score, py_score = ckern.fs_scorer(outs, axis), py.fs_scorer(outs, axis)
    for s in (1.0, 1.0 + 1e-7, 1.0 - 1e-6, 1.0 + 1.1e-6, inside, outside,
              1e-8, 9.9e-9, 1e8, 1.1e8, 0.0, -0.0, -1.0, 5e-324, 1e-300,
              1e300, math.inf, math.nan, 1.00000001e-8):
        assert _scored(c_score, s) == _scored(py_score, s), s


def _raw_fs_deviation(c_package, axis, outs, s):
    """The library's fs_deviation called directly."""
    import ctypes
    from conftest import library_path
    lib = ctypes.CDLL(str(library_path(c_package)))
    fn = lib.fs_deviation
    dp = ctypes.POINTER(ctypes.c_double)
    fn.restype = ctypes.c_double
    fn.argtypes = [ctypes.c_int, dp, dp, ctypes.c_double, dp]
    n = len(axis)
    return fn(n, (ctypes.c_double * n)(*axis),
              (ctypes.c_double * len(outs))(*outs), s,
              (ctypes.c_double * n)())


def test_fs_kernel_reports_the_first_value_outside_the_window(c_package,
                                                             ckern):
    # at s = 2e-8 the closed form leaves _unit's window near (1, 1): here
    # at (a, a), (a, 1), (1, a) and (1, 1), with F_s(a, a) reported first
    a = 0.9999999999996374
    axis, s = (0.0, a, 1.0), 2e-8
    L = math.log(s)
    ea = math.expm1(a * L)
    first = a + a - 2.0 * (math.log1p(ea * ea / math.expm1(L)) / L)
    assert first != 1.0 + 1.0 - 2.0 * (math.log1p(math.expm1(L)) / L)
    # the kernel refuses s; both scorers raise _unit's error on F_s(a, a)
    assert _raw_fs_deviation(c_package, axis, [0.5] * 9, s) == -1.0
    with pytest.raises(DomainError) as want:
        copula._unit(first)
    for mod in (ckern, kernels.get_backend("python")):
        with pytest.raises(DomainError) as err:
            mod.fs_scorer([0.5] * 9, axis)(s)
        assert str(err.value) == str(want.value)
    # s <= 0 and NaN are refused too
    for s in (0.0, math.nan):
        assert _raw_fs_deviation(c_package, axis, [0.5] * 9, s) == -1.0
    # inside the window the value is clamped, as _unit clamps: at s = 0.2
    # the closed form gives F_s(1, 1) = -8.9e-16, and 1.0 - 0.0 is 1.0
    outs = [0.0, 1.0, 1.0, 1.0]
    assert _raw_fs_deviation(c_package, (0.0, 1.0), outs, 0.2) == 1.0
    assert kernels.get_backend("python").fs_scorer(outs, (0.0, 1.0))(
        0.2) == 1.0


# a kern.c whose expm1 is NaN refuses every s in the closed-form range
_NAN_EXPM1 = """#include <math.h>
static double nan_expm1(double x)
{
    return x - x + NAN;
}
#define expm1 nan_expm1
"""


def test_c_scorer_raises_when_only_the_kernel_refuses(c_package, tmp_path):
    from xorlab import _cbackend
    kern = _cbackend.load(_variant_library(c_package, tmp_path, _NAN_EXPM1))
    score = kern.fs_scorer([0.5] * 4, (0.0, 1.0))
    assert score(1.0) == 0.5            # s == 1 takes no expm1
    with pytest.raises(RuntimeError, match="refused s = 2.0"):
        score(2.0)
    with pytest.raises(DomainError):
        score(-1.0)


def test_fs_scorer_checks_its_lattice(kern):
    with pytest.raises(IndexError):
        kern.fs_scorer([0.5] * 8, (0.0, 0.5, 1.0))
    with pytest.raises(DomainError):
        kern.fs_scorer([0.5] * 4, (0.0, 1.5))
    # outputs past the lattice are ignored; -0.0 on the axis becomes 0.0
    score = kern.fs_scorer([0.0, 1.0, 1.0, 0.0, 9.0], (-0.0, 1.0))
    assert repr(score(1.0)) == "0.0"


# -- the surface kernels: grid_csv against '%.17g', grid_stats ---------------

def _drawn_doubles(n=200_000, seed=26):
    """n doubles: random bit patterns (NaNs of either sign and every
    exponent among them), random subnormals, values uniform on +-5 and
    +-1000 and log-uniform over 1e-8 to 1e20, and 2^53 +- k."""
    rng = random.Random(seed)
    out = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
           -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    out += [float(2 ** 53 + k) for k in range(-64, 65)]
    out += [-float(2 ** 53 + k) for k in range(-64, 65, 7)]
    draws = (
        lambda: struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0],
        lambda: struct.unpack("<d", struct.pack(
            "<Q", rng.getrandbits(52) | rng.getrandbits(1) << 63))[0],
        lambda: rng.uniform(-5.0, 5.0),
        lambda: rng.uniform(-1000.0, 1000.0),
        lambda: math.copysign(math.exp(rng.uniform(math.log(1e-8),
                                                   math.log(1e20))),
                              rng.random() - 0.5),
    )
    while len(out) < n:
        out.append(rng.choice(draws)())
    return out


def _ties(seed=17):
    """Doubles of exactly 18 significant digits, the last a 5, so that
    rounding them to 17 is a tie: n + k / 2^j with n of d digits and k
    odd has j = 18 - d fraction digits, for d = 0 (n = 0, x >= 0.1) to
    15."""
    rng = random.Random(seed)
    out = []
    for d in range(16):
        j = 18 - d
        for _ in range(40):
            n = rng.randrange(10 ** (d - 1), 10 ** d) if d else 0
            lo = 2 ** j // 10 + 1 if d == 0 else 1
            out.append(n + (rng.randrange(lo, 2 ** j) | 1) / 2 ** j)
    return out


def _edge_doubles():
    """Every power of ten from 1e-330 to 1e308 and its two neighbours, the
    %g switch points 1e-5 and 1e17 with theirs, 1e-4's lower one, and the
    ties."""
    out = _ties()
    for k in range(-330, 309):
        x = float(f"1e{k}")
        out += [x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)]
    for x in (1e-5, 1e17, 1e-4, 1e16, 2.0 ** 53):
        out += [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]
    return out + [-x for x in out]


def _csv_17g(header, axis_a, axis_b, values):
    nb = len(axis_b)
    return header + "".join(
        f"{'%.17g' % a},{'%.17g' % b},{'%.17g' % values[i * nb + j]}\n"
        for i, a in enumerate(axis_a) for j, b in enumerate(axis_b)).encode()


def _first_difference(got, want):
    for k, (g, w) in enumerate(zip(got.split(b"\n"), want.split(b"\n"))):
        if g != w:
            return k, g, w
    return len(got), len(want)


@pytest.mark.parametrize("draw", [_drawn_doubles, _edge_doubles])
def test_grid_csv_writes_percent_17g(kern, draw):
    values = draw()
    got = kern.grid_csv(b"h\n", [0.1], values, values)
    want = _csv_17g(b"h\n", [0.1], values, values)
    assert got == want, _first_difference(got, want)


def test_grid_csv_covers_the_digit_carries():
    # 17-digit rounding carries 1e-14's double, just below 1e-14, into
    # the next decade, and 10.0's first estimate of its exponent is one
    # short, so its 17 digits first read 10^17
    assert "%.17g" % 1e-14 == "1e-14" and 1e-14 < Fraction(1, 10 ** 14)
    assert 1e-14 in _edge_doubles() and 10.0 in _edge_doubles()
    assert "%.17g" % math.nextafter(1e-4, 0.0) == "9.9999999999999991e-05"
    # each tie is exact: 18 significant digits, the last a 5
    for x in _ties():
        digits = Decimal(x).as_tuple().digits
        assert (len(digits), digits[-1]) == (18, 5), x


def test_grid_csv_lays_out_an_a_major_grid(kern):
    axis_a, axis_b = (-1.5, 0.0, 2.0), (0.25, -0.0)
    values = [1.0, math.nan, -math.inf, 1e-7, 123456.789, -0.0]
    got = kern.grid_csv(b"wa,wb,err\n", axis_a, axis_b, values + [9.0])
    assert got == _csv_17g(b"wa,wb,err\n", axis_a, axis_b, values)
    assert got.split(b"\n")[1:3] == [b"-1.5,0.25,1", b"-1.5,-0,nan"]
    assert kern.grid_csv(b"h\n", (), axis_b, []) == b"h\n"
    assert kern.grid_csv(b"", axis_a, (), []) == b""
    with pytest.raises(IndexError):
        kern.grid_csv(b"h\n", axis_a, axis_b, values[:5])


def test_grid_stats_matches_across_backends(kern):
    py = kernels.get_backend("python")
    rng = random.Random(41)
    pool = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, 1.0 + 1e-12,
            1.0 - 5e-13, 2.0]
    for n in (3, 4, 7, 12):
        for _ in range(200):
            values = [rng.choice(pool) if rng.random() < 0.5
                      else rng.uniform(-3.0, 3.0) for _ in range(n * n)]
            assert (repr(kern.grid_stats(values, n))
                    == repr(py.grid_stats(values, n))), (n, values)
    # of tied zeros the minimum and the maximum are the first, whatever
    # their signs
    got = kern.grid_stats([1.0, 0.0, -0.0, 5.0, 5.0, 0.0, 7.0, 7.0,
                           math.nan, 99.0], 3)
    assert repr(got) == repr((0.0, 1, 7.0, 0, 7))
    got = kern.grid_stats([-1.0, -0.0, -2.0, 0.0, -3.0, -1.0, -4.0, -1.0,
                           -1.0], 3)
    assert repr(got) == repr((-4.0, 6, -0.0, 4, 3))
    with pytest.raises(IndexError):
        kern.grid_stats([0.0] * 8, 3)
