"""Backend contract: the compiled kernels, the generated pure-Python
kernels and the loop reference (loop_kernels.py) must agree bit for bit
on every exported operation.

The compiled backend comes from the ckern and c_package fixtures
(tests/conftest.py), which build kern.c with the system cc.  The loader
tests import copies of the package in new interpreters: the first import
builds kern.c into the package's __pycache__, later ones reuse it, and
anything that stops the build or the load selects python silently."""

import io
import math
import os
import random
import re
import shutil
import struct
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import loop_kernels
from xorlab import _pycore, copula, kernels, trainer
from xorlab.datasets import MAX_STEPS, builtin
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


@needs_cc
def test_kern_c_builds_without_warnings(tmp_path):
    # an unused static helper, among others, fails this build
    src = Path(kernels.__file__).parent / "kern.c"
    run = subprocess.run(["cc", *kernels.CFLAGS, "-Wall", "-Wextra",
                          "-Werror", "-o", str(tmp_path / "kern.so"),
                          str(src), *kernels.LIBS], capture_output=True,
                         text=True)
    assert run.returncode == 0, run.stderr


@needs_cc
@pytest.mark.skipif(shutil.which("nm") is None,
                    reason="no symbol lister: `nm` is not on PATH")
def test_kern_c_exports_exactly_what_cbackend_binds(tmp_path):
    # a helper left non-static builds without a warning, so the library's
    # defined text symbols are checked against the bound names instead
    from xorlab import _cbackend
    lib = tmp_path / "kern.so"
    kernels.build(str(Path(kernels.__file__).parent / "kern.c"), str(lib))
    listed = subprocess.run(["nm", "-D", "--defined-only", str(lib)],
                            check=True, capture_output=True, text=True)
    exported = {fields[2] for fields in map(str.split,
                                             listed.stdout.splitlines())
                if len(fields) == 3 and fields[1] == "T"}
    assert exported == set(_cbackend._SIGNATURES)


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
    got = mod.train_run(*args)
    assert repr(got) == repr(loop_kernels.train_run(*args))
    return got


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
       st.integers(0, 2**16), st.integers(0, 2**16), st.integers(0, 9))
@example(sizes=[2, 3, 1], codes=[1, 3, 0], seed=5, per_sample=True,
         draw_a=0, draw_b=11, n_samples=1)
def test_random_shapes_match_loop_reference(kern, sizes, codes, seed,
                                            per_sample, draw_a, draw_b,
                                            n_samples):
    # depth 1-3, every width (input and output too) 1-5, codes 0-3, and
    # 0-9 samples: the batched SSE pass, the next epoch's warm first
    # sample and the per-sample rows on datasets of every size;
    # the example pins a single sample, which a draw can miss
    acts = codes[:len(sizes) - 1]
    rng = random.Random(seed)
    xs = [rng.uniform(-1.5, 1.5) for _ in range(n_samples * sizes[0])]
    ts = [rng.uniform(-1.0, 1.0) for _ in range(n_samples)]
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


# kern.c's static at_rest, exported by a probe that includes kern.c: on
# chosen weights, with train_run's scratch and the samples in their own
# order (train_run passes the epoch's shuffle; the verdict is the same)
_AT_REST_PROBE = """#include "{kern_c}"

int probe_at_rest(int nlayers, const int *sizes, const int *acts,
                  const double *xs, const double *ts, int n_samples,
                  double lr, int per_sample, const double *w)
{{
    Net n;
    int order[16], rest = -1;
    double scratch[2 * 64];
    if (n_samples > 16
        || net_init(&n, nlayers, sizes, acts, n_samples) < 0)
        return -1;
    for (int k = 0; k < n_samples; k++)
        order[k] = k;
    if (n.offs[nlayers] <= 64)
        rest = at_rest(&n, w, xs, ts, order, n_samples, lr, per_sample,
                       scratch + n.offs[nlayers], scratch);
    net_free(&n);
    return rest;
}}
"""


@pytest.fixture(scope="module")
def c_at_rest(c_package, tmp_path_factory):
    """kern.c's at_rest(sizes, acts, per_sample, lr, w) on the xor data,
    built with kernels.CFLAGS from c_package's kern.c."""
    from ctypes import CDLL, c_double, c_int
    tmp = tmp_path_factory.mktemp("at_rest")
    src, lib = tmp / "probe.c", tmp / "probe.so"
    src.write_text(_AT_REST_PROBE.format(
        kern_c=c_package / "xorlab" / "kern.c"))
    subprocess.run(["cc", *kernels.CFLAGS, "-o", str(lib), str(src),
                    *kernels.LIBS], check=True, capture_output=True)
    probe = CDLL(str(lib)).probe_at_rest

    def array(kind, values):
        return (kind * len(values))(*values)

    def at_rest(sizes, acts, per_sample, lr, w):
        rest = probe(len(acts), array(c_int, sizes), array(c_int, acts),
                     array(c_double, XOR_XS), array(c_double, XOR_TS),
                     len(XOR_TS), c_double(lr), int(per_sample),
                     array(c_double, w))
        assert rest in (0, 1)
        return bool(rest)

    return at_rest


def test_c_at_rest_agrees_with_python(c_at_rest):
    # the sign-of-zero weights, and the weights of a per-sample and of a
    # full-batch run, the latter at rest only in full batch
    dead = [-1.0] * 6 + [0.5, 0.5, -0.0]
    runs = [_pycore.train_run(*RELU, XOR_XS, XOR_TS, 0.1, 1000, 1e-3,
                              per_sample, seed, 1.0, 0)[0]
            for per_sample, seed in ((1, 2), (0, 4))]
    verdicts = []
    for w in (dead, dead[:8] + [0.0], [1.0, -1.0, 0.0] + dead[3:8] + [0.0],
              *runs):
        for per_sample in (True, False):
            want = _at_rest(*RELU, per_sample, 0.1, w)
            assert c_at_rest(*RELU, per_sample, 0.1, w) == want, (w,
                                                                  per_sample)
            verdicts.append(want)
    assert verdicts == [False, True, True, True, False, False, True, True,
                        False, True]


# -- train_run's schedule edges -----------------------------------------------
# kern.c's SSE pass leaves every sample's forward values at the next
# epoch's weights, and that epoch's first sample reuses its own; each run
# below is recorded, in both modes

@pytest.mark.parametrize("per_sample", [1, 0])
@pytest.mark.parametrize("n", [0, 1])
def test_tiny_datasets_match_loop_reference(n, per_sample, kern):
    # no sample: the SSE pass has no first sample to leave (at rest after
    # epoch 1 at tol 0, converged at epoch 1 otherwise); one sample: its
    # forward pass is carried into every epoch
    xs, ts = XOR_XS[2:2 + 2 * n], XOR_TS[1:1 + n]
    for acts in ([1, 1], [3, 3]):
        for tol in (0.0, 1e-3):
            for seed in (0, 7):
                _, iters, sse, _, traj = _same_train_run(
                    kern, [2, 2, 1], acts, xs, ts, 0.5, 300, tol, per_sample,
                    seed, 1.0, 1)
                assert len(traj) == iters
                if n == 0:
                    assert sse == 0.0 and iters == (300 if tol == 0.0 else 1)


# (acts, per_sample, lr, seed, tol, epoch, status): 2-2-1 runs on the xor
# data that stop by status at epoch 1 (which starts cold) or 2 (which
# follows the at-rest check after epoch 1, so starts cold too)
STATUS_STOPS = [
    ([1, 1], 1, 0.5, 0, 2.0, 1, 0),
    ([1, 1], 0, 0.5, 0, 2.0, 1, 0),
    ([1, 1], 1, 0.5, 0, 1.45, 2, 0),
    ([1, 1], 0, 0.5, 1, 1.3, 2, 0),
    ([0, 0], 1, 3.0, 3, 1e-3, 1, 2),
    ([0, 0], 0, 3.0, 3, 1e-3, 2, 2),
    ([0, 0], 1, 100.0, 3, 1e-3, 1, 3),
    ([0, 0], 1, 10 ** 0.25, 3, 1e-3, 2, 3),
]


@pytest.mark.parametrize("acts, per_sample, lr, seed, tol, stop, status",
                         STATUS_STOPS)
def test_status_stops_at_epochs_1_and_2_match_loop_reference(
        acts, per_sample, lr, seed, tol, stop, status, kern):
    got = _same_train_run(kern, [2, 2, 1], acts, XOR_XS, XOR_TS, lr, 10, tol,
                          per_sample, seed, 1.0, 1)
    assert (got[1], got[3], len(got[4])) == (stop, status, stop)


@pytest.mark.parametrize("per_sample", [1, 0])
def test_tanh_trains_past_failed_at_rest_checks(per_sample, kern):
    # the checks after epochs 1, 256 and 512 fail, and the epoch after each
    # must run its first forward pass again: the check ran epochs of its own
    for seed in (5, 11):
        _, iters, _, status, traj = _same_train_run(
            kern, [2, 2, 1], [1, 1], XOR_XS, XOR_TS, 0.5, 520, 1e-12,
            per_sample, seed, 1.0, 1)
        assert (iters, status) == (520, 1)
        # not padded after the epoch-512 check: the run went on training
        assert len(set(traj[511:])) > 1


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
    from package_copy import library_path
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
    # the maximum over no points is _max_abs_diff's default, inf; over one
    # point it is that point's deviation (at s = 1, F_s(1, 1) = 0)
    assert kern.fs_scorer([], ())(3.0) == math.inf
    with pytest.raises(DomainError):
        kern.fs_scorer([], ())(-1.0)
    assert kern.fs_scorer([0.9], (1.0,))(1.0) == 0.9
    assert repr(kern.fs_scorer([0.25], (0.5,))(3.0)) == repr(
        kernels.get_backend("python").fs_scorer([0.25], (0.5,))(3.0))


# -- classify's lattice pass and fixed scorer, and the triangle F_s scorer ----

def _loop_lattice(sizes, acts, w, axis):
    """The loop reference's first output at every (x, y) of axis x axis."""
    offs = loop_kernels._offsets(sizes)
    pre = [[0.0] * n for n in sizes[1:]]
    post = [[0.0] * n for n in sizes[1:]]
    return [loop_kernels._forward(sizes, acts, w, offs, (x, y), pre, post)
            for x in axis for y in axis]


# weights that reach inf and NaN, as in test_network's lattice examples
_WILD = st.one_of(st.sampled_from([0.0, -0.0, 1e200, -1e200, 1e300, -1e300]),
                  st.floats(-3.0, 3.0))


@st.composite
def _lattice_nets(draw):
    """Two inputs, depth 1-3, widths 1-5, any activations, and weights."""
    depth = draw(st.integers(1, 3))
    sizes = [2] + [draw(st.integers(1, 5)) for _ in range(depth)]
    acts = [draw(st.integers(0, 3)) for _ in range(depth)]
    return sizes, acts, draw(st.lists(_WILD, min_size=_n_weights(sizes),
                                      max_size=_n_weights(sizes)))


# lattice axes of 1, 2, 11 and 21 points
_AXES = [(0.5,), *map(trainer._axis, (2, 11, 21))]


@settings(max_examples=150, deadline=None)
@given(_lattice_nets(), st.sampled_from(_AXES))
@example(net=([2, 1, 1], [0, 0], [1e200, 1e200, 0.0, 1e200, 0.0]),
         axis=_AXES[1])
@example(net=([2, 2, 1], [0, 0], [1e300, 0.0, 0.0, 1e300, 0.0, 0.0,
                                  1e300, -1e300, 0.0]), axis=_AXES[1])
def test_forward_lattice_matches_pointwise_forward(kern, net, axis):
    # test_network's examples: inf off the origin, and inf - inf, NaN at
    # x = 1
    sizes, acts, w = net
    got = kern.forward_lattice(sizes, acts, w, axis)
    assert type(got) is list
    assert repr(got) == repr(_loop_lattice(sizes, acts, w, axis))


def test_forward_lattice_checks_its_network(kern):
    w = [0.1] * 9
    for sizes, acts in (([2, 0, 1], [1, 1]), ([2], [1]), ([2, 2, 1], [1])):
        with pytest.raises(ValueError, match="not a network"):
            kern.forward_lattice(sizes, acts, w, [0.0, 1.0])
    with pytest.raises(ValueError, match="needs 2 inputs"):
        kern.forward_lattice([3, 1], [0], w, [0.0, 1.0])
    with pytest.raises(IndexError):
        kern.forward_lattice([2, 2, 1], [1, 1], w[:8], [0.0, 1.0])
    # extra weights are ignored, and an empty axis is an empty lattice
    assert (kern.forward_lattice([2, 2, 1], [1, 1], w + [5.0], [0.0, 1.0])
            == kern.forward_lattice([2, 2, 1], [1, 1], w, [0.0, 1.0]))
    assert kern.forward_lattice([2, 2, 1], [1, 1], w, []) == []


def _classify_rows(grid):
    """classify's rows at grid: its fixed candidates, then the edges."""
    axis = trainer._axis(grid)
    edges = (*range(0, grid * grid, grid), *range(grid))
    return [*trainer._candidates(grid).values(), (edges, axis + axis)]


def _near_refs(rng, refs):
    """A value at, or a few ulps from, one of refs, or a signed zero or a
    subnormal, or anything in [-0.5, 1.5]."""
    kind = rng.randrange(4)
    if kind == 0:
        v = rng.choice(refs)
        for _ in range(rng.randrange(3)):
            v = math.nextafter(v, rng.choice((-math.inf, math.inf)))
        return v
    if kind == 1:
        return rng.choice((0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-308,
                           -1e-310))
    if kind == 2:
        return rng.choice(refs) + rng.uniform(-1e-15, 1e-15)
    return rng.uniform(-0.5, 1.5)


def test_fixed_scorer_matches_max_abs_diff(kern):
    # classify's rows at several grids, plus an empty row, a row with
    # repeated points and a row of signed zeros; drawn outputs at and near
    # the references
    rng = random.Random(34)
    for grid in (2, 3, 4, 5, 21):
        cells = grid * grid
        rows = _classify_rows(grid) + [
            ((), ()),
            ([cells - 1, 0, cells - 1], [0.5, -0.0, 1.0]),
            (None, [-0.0, 0.0] * (cells // 2))]
        refs = [v for _, ref in rows for v in ref] or [0.5]
        score = kern.fixed_scorer(rows)
        for _ in range(60):
            outs = [_near_refs(rng, refs) for _ in range(cells)]
            got = score(outs)
            want = [_pycore._max_abs_diff(outs, ref, points)
                    for points, ref in rows]
            assert repr(got) == repr(want), (grid, outs)
            assert got[len(rows) - 3] == math.inf
    assert kern.fixed_scorer([])([]) == []
    assert kern.fixed_scorer([((), ())] * 2)([]) == [math.inf, math.inf]


def test_fixed_scorer_checks_its_rows(kern):
    rows = _classify_rows(3)
    score = kern.fixed_scorer(rows)
    # too short for a row: IndexError from check_cells, before any read
    for outs in ([0.5] * 8, [], [0.5]):
        with pytest.raises(IndexError, match="the grid has 9"):
            score(outs)
    with pytest.raises(IndexError, match="the grid has 5"):
        kern.fixed_scorer([([4], [0.5])])([0.5] * 4)
    with pytest.raises(IndexError, match="the grid has 3"):
        kern.fixed_scorer([(None, [0.5] * 3)])([0.5] * 2)
    # outputs past every row are ignored
    assert score([0.5] * 9 + [7.0]) == score([0.5] * 9)
    with pytest.raises(ValueError, match="2 points for 1 reference"):
        kern.fixed_scorer([([0, 1], [0.5])])
    with pytest.raises(IndexError, match="negative"):
        kern.fixed_scorer([([0, -1], [0.5, 0.5])])
    # the rows are copied when the scorer is built
    points, ref = [0], [0.5]
    score = kern.fixed_scorer([(points, ref)])
    points[0], ref[0] = 5, 9.0
    assert score([1.0]) == [0.5]


# s at the One window's edges and at the dispatch thresholds, with the
# neighbouring floats on either side, and s that the kernel refuses
_EDGE_S = sorted({v for s in (1.0 - copula.ONE_WINDOW, 1.0 + copula.ONE_WINDOW,
                              copula.ZERO_DISPATCH, copula.INF_DISPATCH, 2e-8)
                  for v in (math.nextafter(s, 0.0), s,
                            math.nextafter(s, math.inf))}
                 | {1.0, 5e-324, 1e-300, 1e300, math.inf, 0.0, -0.0, -1.0})


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.floats(1e-10, 1e10), st.sampled_from(_EDGE_S),
                 st.just(math.nan)),
       st.sampled_from([(0.5,), *map(trainer._axis, (2, 3, 5, 21))]),
       st.integers(0, 2**32))
def test_fs_triangle_matches_python_scorer(ckern, s, axis, seed):
    # fs_deviation scores F_s(x, y) once for (x, y) and (y, x); drawn
    # outputs that are not symmetric, so each mirror point counts
    rng = random.Random(seed)
    outs = [rng.uniform(-0.2, 1.2) for _ in range(len(axis) ** 2)]
    assert _scored(ckern.fs_scorer(outs, axis), s) == \
        _scored(_pycore.fs_scorer(outs, axis), s)


# a probe built from kern.c with AddressSanitizer and
# UndefinedBehaviorSanitizer: every buffer is a heap block of exactly its
# length, so a read or write past one is reported, and any report fails
_SANITIZED_PROBE = """#include "{kern_c}"

static const double *heap(const double *v, int n)
{{
    double *p = malloc((size_t)n * sizeof(double) + (n == 0));
    memcpy(p, v, (size_t)n * sizeof(double));
    return p;
}}

static const int *iheap(const int *v, int n)
{{
    int *p = malloc((size_t)n * sizeof(int) + (n == 0));
    memcpy(p, v, (size_t)n * sizeof(int));
    return p;
}}

static void show(const double *v, int n)
{{
    for (int i = 0; i < n; i++)
        printf("%a\\n", v[i]);
}}

int main(void)
{{
{body}    return 0;
}}
"""

# one lattice per n: forward_lattice on a 2-3-2-1 net, fs_deviation at
# each s, and fixed_scores on classify's rows and two empty ones
_PROBE_CASE = """    {{
        static const int sizes[] = {{2, 3, 2, 1}}, acts[] = {{1, 3, 2}};
        static const double w0[] = {{{w}}}, axis0[] = {{{axis}}},
            outs0[] = {{{outs}}}, ref0[] = {{{ref}}}, ss[] = {{{ss}}};
        static const int start0[] = {{{start}}}, points0[] = {{{points}}};
        const double *w = heap(w0, {nw}), *axis = heap(axis0, {n}),
            *outs = heap(outs0, {cells}), *ref = heap(ref0, {npoints});
        const int *start = iheap(start0, {nstart}),
            *points = iheap(points0, {npoints});
        double *lattice = malloc({cells} * sizeof(double)),
            *ex = malloc({n} * sizeof(double)),
            *devs = malloc({nrows} * sizeof(double));
        if (forward_lattice(3, sizes, acts, w, axis, {n}, lattice) != 0)
            return 1;
        show(lattice, {cells});
        for (int k = 0; k < {nss}; k++)
            printf("%a\\n", fs_deviation({n}, axis, outs, ss[k], ex));
        fixed_scores({nrows}, start, points, ref, outs, devs);
        show(devs, {nrows});
        free((void *)w); free((void *)axis); free((void *)outs);
        free((void *)ref); free((void *)start); free((void *)points);
        free(lattice); free(ex); free(devs);
    }}
"""

# forward_lattice alone on a 2-3-2-1 net, for the axes of 0 and 1 points
# that classify never uses: the lattice's cells
_LATTICE_CASE = """    {{
        static const int sizes[] = {{2, 3, 2, 1}}, acts[] = {{1, 3, 2}};
        static const double w0[] = {{{w}}}, axis0[] = {{{axis}}};
        const double *w = heap(w0, {nw}), *axis = heap(axis0, {n});
        double *lattice = malloc({cells} * sizeof(double));
        if (forward_lattice(3, sizes, acts, w, axis, {n}, lattice) != 0)
            return 1;
        show(lattice, {cells});
        free((void *)w); free((void *)axis); free(lattice);
    }}
"""

# one train_run on n_samples of the xor data, recording: w, iters, sse,
# status and the trajectory, which has iters entries
_TRAIN_CASE = """    {{
        static const int sizes[] = {{2, 3, 2, 1}}, acts[] = {{1, 3, 2}};
        static const double xs0[] = {{{xs}}}, ts0[] = {{{ts}}};
        const double *xs = heap(xs0, {nx}), *ts = heap(ts0, {n});
        double *w = malloc({nw} * sizeof(double)), sse, *traj;
        int iters, status = train_run(3, sizes, acts, xs, ts, {n}, 0.5,
                                      {max_iters}, 0.0, {per_sample},
                                      {seed}ULL, 1.0, 1, w, &iters, &sse,
                                      &traj);
        if (status < 0)
            return 1;
        show(w, {nw});
        printf("%a\\n%a\\n%a\\n", (double)iters, sse, (double)status);
        show(traj, iters);
        free((void *)xs); free((void *)ts); free(w); kern_free(traj);
    }}
"""

# one project_grid over slots ia and ib of w (one scratch slot past the
# network) on n_samples of the xor data: the grid's cells
_GRID_CASE = """    {{
        static const int sizes0[] = {{{sizes}}}, acts0[] = {{{acts}}},
            level0[] = {{{level}}};
        static const double w0[] = {{{w}}}, xs0[] = {{{xs}}},
            ts0[] = {{{ts}}}, a0[] = {{{avals}}}, b0[] = {{{bvals}}};
        const int *sizes = iheap(sizes0, {nsizes}),
            *acts = iheap(acts0, {nlayers}), *level = iheap(level0, {units});
        const double *xs = heap(xs0, {nx}), *ts = heap(ts0, {n}),
            *a = heap(a0, {na}), *b = heap(b0, {nb});
        double *w = (double *)heap(w0, {nw}),
            *out = malloc({cells} * sizeof(double));
        if (project_grid({nlayers}, sizes, acts, w, xs, ts, {n}, {ia}, {ib},
                         level, a, {na}, b, {nb}, out) != 0)
            return 1;
        show(out, {cells});
        free((void *)sizes); free((void *)acts); free((void *)level);
        free((void *)xs); free((void *)ts); free((void *)a);
        free((void *)b); free(w); free(out);
    }}
"""

# grid_csv, chunk after chunk, on exact-length axes, grid and work space,
# its text appended to the file at {path}; a chunk that is empty or longer
# than CSV_CHUNK, or a call that does not end at the last cell, exits 2
_CSV_CASE = """    {{
        static const double a0[] = {{{a}}}, b0[] = {{{b}}}, v0[] = {{{v}}};
        const double *a = heap(a0, {na}), *b = heap(b0, {nb}),
            *v = heap(v0, {cells});
        char *work = malloc(grid_csv_work({na}, {nb}));
        long long cell = 0;
        FILE *fh = fopen("{path}", "ab");
        for (int n; (n = grid_csv(a, {na}, b, {nb}, v, work, &cell)) != 0;) {{
            if (n < 0 || n > CSV_CHUNK)
                return 2;
            fwrite(work, 1, (size_t)n, fh);
        }}
        if (cell != {cells})
            return 2;
        fclose(fh);
        free((void *)a); free((void *)b); free((void *)v); free(work);
    }}
"""

# project_grid's nets and slot pairs for the sanitized probe: each net
# gets units at levels 0, 1 and 2, ia == ib and a scratch slot for b; the
# 2-2-2 net's top layer has a second unit, which project_grid never
# computes, and its (10, 10) lies in that unit's row
_GRID_NETS = (
    ([2, 3, 2, 1], [1, 3, 2], ((0, 19), (10, 10), (14, 20))),
    ([2, 2, 2], [1, 3], ((0, 7), (10, 10), (3, 12))),
)

_SANITIZE = ("-fsanitize=address,undefined", "-fno-sanitize-recover=all")


def _c_doubles(values):
    return ", ".join(v.hex() if math.isfinite(v) else
                     ("INFINITY" if v > 0 else "-INFINITY") for v in values)


@needs_cc
def test_new_kernels_run_clean_under_sanitizers(tmp_path):
    rng = random.Random(21)
    sizes, acts = [2, 3, 2, 1], [1, 3, 2]
    w = [rng.uniform(-2.0, 2.0) for _ in range(_n_weights(sizes))]
    ss = [0.5, 1.0, 3.0, 1e-9, 1e9, math.inf, 0.0]
    body, want = [], []
    py = kernels.get_backend("python")
    # trainer._axis refuses fewer than 2 steps, so these axes get no
    # fs_deviation or fixed_scores
    for axis in ([], [0.5]):
        body.append(_LATTICE_CASE.format(
            w=_c_doubles(w), axis=_c_doubles(axis) or "0", nw=len(w),
            n=len(axis), cells=len(axis) ** 2))
        want += py.forward_lattice(sizes, acts, w, axis)
    for n in (2, 3, 21):
        axis = trainer._axis(n)
        outs = [rng.uniform(-0.2, 1.2) for _ in range(n * n)]
        rows = _classify_rows(n) + [((), ())] * 2
        start, points, ref = [0], [], []
        for row_points, row_ref in rows:
            points += range(len(row_ref)) if row_points is None \
                else row_points
            ref += row_ref
            start.append(len(points))
        body.append(_PROBE_CASE.format(
            w=_c_doubles(w), axis=_c_doubles(axis), outs=_c_doubles(outs),
            ref=_c_doubles(ref), ss=_c_doubles(ss),
            start=", ".join(map(str, start)),
            points=", ".join(map(str, points)), nw=len(w), n=n,
            cells=n * n, npoints=len(points), nstart=len(start),
            nrows=len(rows), nss=len(ss)))
        want += py.forward_lattice(sizes, acts, w, axis)
        for s in ss:
            try:
                want.append(py.fs_scorer(outs, axis)(s))
            except DomainError:
                want.append(-1.0)
        want += py.fixed_scorer(rows)(outs)
    # train_run on no sample, one and four, per sample and full batch, past
    # the at-rest checks after epochs 1 and 256
    trained = []
    for n in (0, 1, 4):
        xs, ts = XOR_XS[:2 * n], XOR_TS[:n]
        for per_sample in (1, 0):
            seed = 40 + n + per_sample
            body.append(_TRAIN_CASE.format(
                xs=_c_doubles(xs) or "0", ts=_c_doubles(ts) or "0",
                nx=len(xs), n=n, nw=len(w), max_iters=300,
                per_sample=per_sample, seed=seed))
            rw, iters, sse, status, traj = py.train_run(
                sizes, acts, xs, ts, 0.5, 300, 0.0, per_sample, seed, 1.0, 1)
            trained += [*rw, float(iters), sse, float(status), *traj]
    # project_grid on no sample, one and four, on both nets
    grids, avals, bvals = [], [-1.5, 0.25, 2.0], [-0.0, 0.5, -0.75]
    for grid_sizes, grid_acts, pairs in _GRID_NETS:
        grid_w = [rng.uniform(-2.0, 2.0)
                  for _ in range(_n_weights(grid_sizes) + 1)]
        assert {level for pair in pairs
                for level in _pycore.grid_levels(grid_sizes, *pair)} \
            == {0, 1, 2}
        for n in (0, 1, 4):
            xs, ts = XOR_XS[:2 * n], XOR_TS[:n]
            for ia, ib in pairs:
                level = _pycore.grid_levels(grid_sizes, ia, ib)
                body.append(_GRID_CASE.format(
                    sizes=", ".join(map(str, grid_sizes)),
                    acts=", ".join(map(str, grid_acts)),
                    level=", ".join(map(str, level)), w=_c_doubles(grid_w),
                    xs=_c_doubles(xs) or "0", ts=_c_doubles(ts) or "0",
                    avals=_c_doubles(avals), bvals=_c_doubles(bvals),
                    nsizes=len(grid_sizes), nlayers=len(grid_acts),
                    units=len(level), nx=len(xs), n=n, na=len(avals),
                    nb=len(bvals), nw=len(grid_w),
                    cells=len(avals) * len(bvals), ia=ia, ib=ib))
                grids += py.project_grid(grid_sizes, grid_acts, grid_w, xs,
                                         ts, ia, ib, avals, bvals)
    # grid_csv on the chunk-edge shapes: 0 x n, n x 0, one cell, text
    # that ends on a chunk edge, and rows longer than a chunk
    csv_path, csv_want = tmp_path / "grid.csv", io.BytesIO()
    for na, nb in ((0, 3), (3, 0), (0, 0), (1, 1), (1, _EDGE_LINES),
                   (2, MAX_STEPS)):
        axis_a, axis_b = _WIDE[:na], _WIDE[-nb:] if nb else []
        values = _WIDE[:na * nb]
        body.append(_CSV_CASE.format(
            a=_c_doubles(axis_a) or "0", b=_c_doubles(axis_b) or "0",
            v=_c_doubles(values) or "0", na=na, nb=nb, cells=na * nb,
            path=csv_path))
        py.grid_csv(csv_want.write, b"", axis_a, axis_b, values)
    src, exe = tmp_path / "probe.c", tmp_path / "probe"
    src.write_text(_SANITIZED_PROBE.format(
        kern_c=Path(kernels.__file__).parent / "kern.c",
        body="".join(body)))
    flags = [f for f in kernels.CFLAGS if f not in ("-shared", "-fPIC")]
    build = subprocess.run(["cc", *flags, "-g", *_SANITIZE, "-o", str(exe),
                            str(src), *kernels.LIBS], capture_output=True,
                           text=True)
    assert build.returncode == 0, build.stderr
    run = subprocess.run([str(exe)], capture_output=True, text=True,
                         env=dict(os.environ, ASAN_OPTIONS="detect_leaks=1",
                                  UBSAN_OPTIONS="print_stacktrace=1"))
    assert run.returncode == 0 and "runtime error" not in run.stderr \
        and "Sanitizer" not in run.stderr, run.stderr
    got = [float.fromhex(line) for line in run.stdout.split()]
    assert repr(got) == repr(want + trained + grids)
    assert want.count(-1.0) == 3 and math.inf in want
    assert csv_path.read_bytes() == csv_want.getvalue()


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


# kern.c as a compiler without 128-bit integers builds it: grid_csv then
# writes every number with snprintf
_NO_INT128 = "#undef __SIZEOF_INT128__\n"


@pytest.fixture(scope="module", params=["python", "c", "c-no-int128"])
def csv_kern(request):
    """Each backend in turn, then the compiled one built without 128-bit
    integers; the c ones skip when no cc is on PATH."""
    if request.param == "python":
        return kernels.get_backend("python")
    if request.param == "c":
        return request.getfixturevalue("ckern")
    from xorlab import _cbackend
    c_package = request.getfixturevalue("c_package")
    tmp = request.getfixturevalue("tmp_path_factory").mktemp("no_int128")
    return _cbackend.load(_variant_library(c_package, tmp, _NO_INT128))


def _csv_bytes(kern, header, axis_a, axis_b, values):
    """What kern's grid_csv writes, gathered in a BytesIO."""
    buf = io.BytesIO()
    kern.grid_csv(buf.write, header, axis_a, axis_b, values)
    return buf.getvalue()


@pytest.mark.parametrize("draw", [_drawn_doubles, _edge_doubles])
def test_grid_csv_writes_percent_17g(csv_kern, draw):
    values = draw()
    got = _csv_bytes(csv_kern, b"h\n", [0.1], values, values)
    want = _csv_17g(b"h\n", [0.1], values, values)
    assert got == want, _first_difference(got, want)


def test_no_int128_build_has_no_integer_path(c_package, tmp_path):
    # so the c-no-int128 runs above test the snprintf path alone
    src = c_package / "xorlab" / "kern.c"
    header = tmp_path / "prelude.h"
    header.write_text(_NO_INT128)
    text = subprocess.run(["cc", "-E", *kernels.DEFINES, "-include",
                           str(header), str(src)], check=True,
                          capture_output=True, text=True).stdout
    assert "digits17" in src.read_text() and "digits17" not in text
    assert "snprintf" in text


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
    got = _csv_bytes(kern, b"wa,wb,err\n", axis_a, axis_b, values + [9.0])
    assert got == _csv_17g(b"wa,wb,err\n", axis_a, axis_b, values)
    assert got.split(b"\n")[1:3] == [b"-1.5,0.25,1", b"-1.5,-0,nan"]
    assert _csv_bytes(kern, b"h\n", (), axis_b, []) == b"h\n"
    assert _csv_bytes(kern, b"", axis_a, (), []) == b""
    with pytest.raises(IndexError):
        _csv_bytes(kern, b"h\n", axis_a, axis_b, values[:5])


# kern.c's chunk, the most bytes one write of the compiled grid_csv gets,
# and the room a line needs in it: a chunk ends when less is left
_CSV_CHUNK, _CSV_LINE_ROOM = (int(re.search(
    rf"#define {name} (\d+)",
    (Path(kernels.__file__).parent / "kern.c").read_text()).group(1))
    for name in ("CSV_CHUNK", "CSV_LINE_ROOM"))


def _wide_cells(n, seed=38):
    """n doubles that '%.17g' writes in 24 bytes, its longest text, such
    as -1.2345678901234567e-300."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        x = -rng.uniform(1.0, 10.0) * 1e-300
        if len("%.17g" % x) == 24:
            out.append(x)
    return out


# a MAX_STEPS-wide row of 24-byte numbers: every line is 75 bytes, the
# longest a line can be, so kern.c's first chunk ends after _EDGE_LINES
# lines, the first to leave less than a line's room
_WIDE = _wide_cells(2 * MAX_STEPS)
_EDGE_LINES = (_CSV_CHUNK - _CSV_LINE_ROOM) // 75 + 1


def _chunks(kern, header, axis_a, axis_b, values):
    """Each piece kern's grid_csv writes, copied when it is written (the
    compiled one reuses its buffer)."""
    chunks = []
    kern.grid_csv(lambda chunk: chunks.append(bytes(chunk)), header,
                  axis_a, axis_b, values)
    return chunks


@pytest.mark.parametrize("header, na, nb", [
    (b"h\n", 0, 3), (b"h\n", 3, 0), (b"h\n", 0, 0), (b"", 0, 0),
    (b"h\n", 1, 1), (b"", 1, 1), (b"", 1, _EDGE_LINES),
    (b"", 1, _EDGE_LINES + 1), (b"wa,wb,err\n", 1, MAX_STEPS),
    (b"wa,wb,err\n", 2, MAX_STEPS)])
def test_grid_csv_streams_in_chunks(csv_kern, header, na, nb):
    # 0 x n, n x 0 and the header alone; one cell; text that ends on a
    # chunk edge and one line past it; a row longer than a chunk
    axis_a, axis_b = _WIDE[:na], _WIDE[-nb:] if nb else []
    values = _WIDE[:na * nb]
    chunks = _chunks(csv_kern, header, axis_a, axis_b, values)
    assert b"".join(chunks) == _csv_17g(header, axis_a, axis_b, values)
    assert all(chunks)
    if csv_kern.BACKEND == "python":
        # the header, then one piece per row
        assert len(chunks) == bool(header) + (na if nb else 0)
        return
    assert all(len(chunk) <= _CSV_CHUNK for chunk in chunks)
    lines = [chunk.count(b"\n") for chunk in chunks[bool(header):]]
    assert lines == [_EDGE_LINES] * (na * nb // _EDGE_LINES) + (
        [na * nb % _EDGE_LINES] if na * nb % _EDGE_LINES else [])


def test_grid_csv_checks_the_shape_before_any_write(csv_kern):
    chunks = []
    with pytest.raises(IndexError):
        csv_kern.grid_csv(chunks.append, b"h\n", [1.0, 2.0], [3.0], [4.0])
    assert chunks == []


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
