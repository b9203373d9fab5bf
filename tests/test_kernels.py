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
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loop_kernels
from xorlab import _pycore, kernels
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


def test_sse_dataset_parity(ckern):
    py = kernels.get_backend("python")
    for sizes, acts in CASES:
        nw = sum(sizes[l + 1] * (sizes[l] + 1) for l in range(len(sizes) - 1))
        w = [((k * 37) % 11 - 5) / 7.0 for k in range(nw)]
        got_c = ckern.sse_dataset(sizes, acts, w, XOR_XS, XOR_TS)
        got_py = py.sse_dataset(sizes, acts, w, XOR_XS, XOR_TS)
        assert got_c == got_py   # bitwise


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
    assert list(got_c) == list(got_py)
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


@pytest.fixture(scope="session", params=["python", "c"])
def kern(request):
    """Each backend in turn; the c one skips when no cc is on PATH."""
    if request.param == "c":
        return request.getfixturevalue("ckern")
    return kernels.get_backend("python")


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
        assert (repr(kern.project_grid(*args))
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
        assert repr(kern.project_grid(*args)) == _REFERENCE_GRIDS[key], key


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
    assert (repr(kern.project_grid(*args))
            == repr(loop_kernels.project_grid(*args)))


@pytest.mark.parametrize("ia, ib, calls", [
    (0, 6, 4 + 12 + 60),    # unit 2 before the loops, unit 1 per a value
    (6, 7, 8 + 60),         # both hidden units before the loops
    (0, 3, 12 + 60 + 60),   # unit 1 per a value, unit 2 per cell
    (0, 0, 4 + 60 + 60),    # a == b: b wins, so nothing runs per a value
    (9, 9, 12),             # scratch slots: every unit once
])
def test_project_grid_hoists_units_out_of_the_loops(monkeypatch, ia, ib,
                                                    calls):
    # tanh runs once per unit and sample; 3 a values, 5 b values and 4
    # samples give 3 * 5 * 4 = 60 per unit computed per cell
    count = []

    def tanh(z):
        count.append(z)
        return math.tanh(z)

    monkeypatch.setitem(_pycore._NAMESPACE, "tanh", tanh)
    _pycore._grid_kernel.cache_clear()
    w = [0.1, -0.1, 0.2, -0.2, 0.3, 0.1, -0.4, -0.2, 0.3, 0.0]
    args = ([2, 2, 1], [1, 1], w, XOR_XS, XOR_TS, ia, ib, [-1.0, 0.0, 1.0],
            [-2.0, -1.0, 0.0, 1.0, 2.0])
    assert repr(_pycore.project_grid(*args)) == repr(
        loop_kernels.project_grid(*args))
    _pycore._grid_kernel.cache_clear()
    assert len(count) == calls


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


def test_grid_kernel_key_drops_slots_that_change_nothing():
    _pycore._grid_kernel.cache_clear()
    w = [0.1] * 10                      # slot 9 is past the 2-2-1 net
    for ia, ib in ((3, 3), (9, 3), (-7, -7), (3, -7)):
        _pycore.project_grid([2, 2, 1], [1, 1], w, XOR_XS, XOR_TS, ia, ib,
                             [0.0], [1.0])
    info = _pycore._grid_kernel.cache_info()
    assert (info.misses, info.hits) == (1, 3)


def test_generated_code_names_its_shape():
    run = _pycore._train_kernel((2, 2, 1), (3, 3), True)
    assert (run.__code__.co_filename
            == "<xorlab train_run 2-2-1 relu-relu per_sample>")
    grid = _pycore._grid_kernel((2, 2, 1), (1, 1), 0, 6)
    assert (grid.__code__.co_filename
            == "<xorlab project_grid 2-2-1 tanh-tanh a=w0 b=w6>")
    grid = _pycore._grid_kernel((2, 3, 1), (2, 0), None, 12)
    assert (grid.__code__.co_filename
            == "<xorlab project_grid 2-3-1 sigmoid-id a=none b=w12>")
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
    assert kern.project_grid([2, 2, 1], [1, 1], w + [5.0, 6.0], XOR_XS,
                            XOR_TS, 9, -1, [0.0, 1.0], [2.0]) == [base, base]


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
