"""Backend contract: the compiled kernels and the pure-Python kernels
must agree bit for bit on every exported operation.

The compiled backend comes from the ckern and c_package fixtures
(tests/conftest.py), which build kern.c with the system cc."""

import math
import os
import subprocess
import sys

import pytest

from xorlab import kernels
from xorlab.errors import DomainError

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
]


def test_backend_selection():
    assert kernels.BACKEND in ("c", "python")
    assert "python" in kernels.available_backends()
    py = kernels.get_backend("python")
    assert py.BACKEND == "python"
    assert kernels.get_backend("pure") is py
    with pytest.raises(DomainError):
        kernels.get_backend("fortran")


def _run_kernels(package, code, backend=None):
    env = dict(os.environ, PYTHONPATH=str(package))
    env.pop("XORLAB_BACKEND", None)
    if backend is not None:
        env["XORLAB_BACKEND"] = backend
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_env_override_forces_backend(c_package):
    code = "import xorlab.kernels as k; print(k.BACKEND)"
    for choice in ("python", "c"):
        assert _run_kernels(c_package, code, choice) == choice
    assert _run_kernels(c_package, code) == "c"


def test_no_library_selects_python_without_ctypes(bare_package):
    code = ("import sys, xorlab.kernels as k; print(k.BACKEND, "
            "k.available_backends(), 'ctypes' in sys.modules)")
    assert _run_kernels(bare_package, code) == "python ('python',) False"


def test_rng_stream_is_deterministic():
    a = kernels.rng_uniform(123, 16)
    b = kernels.rng_uniform(123, 16)
    assert a == b
    assert kernels.rng_uniform(124, 16) != a
    assert all(0.0 <= v < 1.0 for v in a)


def test_rng_stream_parity(ckern):
    py = kernels.get_backend("python")
    for seed in (0, 1, 2**63, 2**64 - 1):
        assert ckern.rng_uniform(seed, 64) == py.rng_uniform(seed, 64)


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
    with pytest.raises(OverflowError):
        ckern.rng_uniform(1, 2**31)
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
