"""The loop kernels: the reference the generated Python kernels and the
compiled C kernels are compared against, bit for bit.

These are the loops xorlab._pycore ran before it generated straight-line
code per network shape, kept verbatim.  kern.c mirrors them operation
for operation: the same accumulation order, constants, update
expressions and status codes.  The splitmix64 stream and the sigmoid
come from xorlab._pycore, where they are written once.  gradient is the
loop xorlab.network.gradient ran before it switched to generated code,
written on _forward and _slope.
"""

from __future__ import annotations

import math

from xorlab._pycore import SSE_BLOWUP, _SplitMix, _sigmoid
from xorlab.linalg import Matrix


def _act(code: int, z: float) -> float:
    if code == 0:
        return z
    if code == 1:
        return math.tanh(z)
    if code == 2:
        return _sigmoid(z)
    return z if z > 0.0 else 0.0


def _slope(code: int, z: float, a: float) -> float:
    if code == 0:
        return 1.0
    if code == 1:
        return 1.0 - a * a
    if code == 2:
        return a * (1.0 - a)
    return 1.0 if z > 0.0 else 0.0


def _offsets(sizes) -> list:
    """Flat offset of each layer's weight block."""
    offs = [0]
    for l in range(len(sizes) - 1):
        offs.append(offs[-1] + sizes[l + 1] * (sizes[l] + 1))
    return offs


def _forward(sizes, acts, w, offs, x, pre, post):
    """Fill pre/post buffers; returns the scalar output.

    Accumulation order is pinned: ascending input index, bias last.
    """
    nlayers = len(sizes) - 1
    a = x
    for l in range(nlayers):
        n_prev = sizes[l]
        base = offs[l]
        code = acts[l]
        zs = pre[l]
        avs = post[l]
        for i in range(sizes[l + 1]):
            row = base + i * (n_prev + 1)
            z = 0.0
            for j in range(n_prev):
                z += w[row + j] * a[j]
            z += w[row + n_prev]
            zs[i] = z
            avs[i] = _act(code, z)
        a = avs
    return a[0]


def _sse(sizes, acts, w, offs, xs, ts, pre, post) -> float:
    n_in = sizes[0]
    total = 0.0
    for k in range(len(ts)):
        out = _forward(sizes, acts, w, offs, xs[k * n_in:(k + 1) * n_in],
                       pre, post)
        d = out - ts[k]
        total += d * d
    return total


def sse_dataset(sizes, acts, w, xs, ts) -> float:
    sizes = list(sizes)
    offs = _offsets(sizes)
    pre = [[0.0] * sizes[l + 1] for l in range(len(sizes) - 1)]
    post = [[0.0] * sizes[l + 1] for l in range(len(sizes) - 1)]
    return _sse(sizes, list(acts), list(w), offs, list(xs), list(ts),
                pre, post)


def _backward(sizes, acts, w, offs, x, target, pre, post, delta):
    """Deltas dE/dz for every unit, E = (out - target)^2 / 2.

    The halved-error convention folds the constant 2 into the learning
    rate, as in the classic backprop texts.  Uses the weights as they
    are, so callers must finish the backward sweep before touching them.
    """
    nlayers = len(sizes) - 1
    last = nlayers - 1
    out = post[last][0]
    delta[last][0] = ((out - target)
                      * _slope(acts[last], pre[last][0], post[last][0]))
    for l in range(last - 1, -1, -1):
        base = offs[l + 1]
        width = sizes[l + 1]
        code = acts[l]
        for j in range(width):
            acc = 0.0
            for i in range(sizes[l + 2]):
                acc += delta[l + 1][i] * w[base + i * (width + 1) + j]
            delta[l][j] = acc * _slope(code, pre[l][j], post[l][j])


def gradient(sizes, acts, w, x, target) -> tuple:
    """Partials of E = (out - target)^2, one Matrix per layer.

    The output delta is 2 (out - target) f'(z), not halved as in
    training.  Each layer's matrix is packed as soon as its deltas are
    known, the last layer first, so a non-finite partial raises the
    DomainError the backward sweep meets first.
    """
    sizes = list(sizes)
    nlayers = len(sizes) - 1
    offs = _offsets(sizes)
    pre = [[0.0] * sizes[l + 1] for l in range(nlayers)]
    post = [[0.0] * sizes[l + 1] for l in range(nlayers)]
    out = _forward(sizes, acts, w, offs, x, pre, post)
    last = nlayers - 1
    delta = [2.0 * (out - float(target))
             * _slope(acts[last], pre[last][0], post[last][0])]
    grads = [None] * nlayers
    for l in range(last, -1, -1):
        below = post[l - 1] if l > 0 else x
        n_prev = sizes[l]
        rows = []
        for i in range(sizes[l + 1]):
            rows.append([delta[i] * below[j] for j in range(n_prev)]
                        + [delta[i]])
        grads[l] = Matrix.from_rows(rows)
        if l > 0:
            nxt = []
            for j in range(n_prev):
                acc = 0.0
                for i in range(sizes[l + 1]):
                    acc += delta[i] * w[offs[l] + i * (n_prev + 1) + j]
                nxt.append(acc * _slope(acts[l - 1], pre[l - 1][j],
                                        post[l - 1][j]))
            delta = nxt
    return tuple(grads)


def train_run(sizes, acts, xs, ts, lr, max_iters, tol, per_sample,
              seed, init_range, record):
    """Gradient-descent run; returns (weights, iters, sse, status, traj).

    One iteration is one pass over the data: n shuffled single-sample
    updates in per_sample mode, one aggregate update otherwise.  The
    shuffle and the init share a single splitmix64 stream.
    """
    sizes = list(sizes)
    acts = list(acts)
    xs = list(xs)
    ts = list(ts)
    lr = float(lr)
    tol = float(tol)
    init_range = float(init_range)

    nlayers = len(sizes) - 1
    n_in = sizes[0]
    n_samples = len(ts)
    offs = _offsets(sizes)
    n_weights = offs[-1]

    rng = _SplitMix(seed)
    w = [0.0] * n_weights
    for k in range(n_weights):
        w[k] = (2.0 * rng.next_unit() - 1.0) * init_range

    pre = [[0.0] * sizes[l + 1] for l in range(nlayers)]
    post = [[0.0] * sizes[l + 1] for l in range(nlayers)]
    delta = [[0.0] * sizes[l + 1] for l in range(nlayers)]
    order = list(range(n_samples))
    gsum = [0.0] * n_weights if not per_sample else None

    traj = []
    status = 1
    iters = max_iters
    sse = math.inf

    for it in range(1, max_iters + 1):
        if per_sample:
            for i in range(n_samples - 1, 0, -1):
                j = rng.next_u64() % (i + 1)
                order[i], order[j] = order[j], order[i]
            for k in order:
                x = xs[k * n_in:(k + 1) * n_in]
                _forward(sizes, acts, w, offs, x, pre, post)
                _backward(sizes, acts, w, offs, x, ts[k], pre, post, delta)
                for l in range(nlayers):
                    below = post[l - 1] if l > 0 else x
                    n_prev = sizes[l]
                    base = offs[l]
                    for i in range(sizes[l + 1]):
                        row = base + i * (n_prev + 1)
                        di = delta[l][i]
                        for j in range(n_prev):
                            w[row + j] -= lr * (di * below[j])
                        w[row + n_prev] -= lr * di
        else:
            for k in range(n_weights):
                gsum[k] = 0.0
            for k in range(n_samples):
                x = xs[k * n_in:(k + 1) * n_in]
                _forward(sizes, acts, w, offs, x, pre, post)
                _backward(sizes, acts, w, offs, x, ts[k], pre, post, delta)
                for l in range(nlayers):
                    below = post[l - 1] if l > 0 else x
                    n_prev = sizes[l]
                    base = offs[l]
                    for i in range(sizes[l + 1]):
                        row = base + i * (n_prev + 1)
                        di = delta[l][i]
                        for j in range(n_prev):
                            gsum[row + j] += di * below[j]
                        gsum[row + n_prev] += di
            for k in range(n_weights):
                w[k] -= lr * gsum[k]

        sse = _sse(sizes, acts, w, offs, xs, ts, pre, post)
        if record:
            traj.append(sse)
        bad = not math.isfinite(sse)
        if not bad:
            for k in range(n_weights):
                if not math.isfinite(w[k]):
                    bad = True
                    break
        if bad:
            status = 3
            iters = it
            break
        if sse > SSE_BLOWUP:
            status = 2
            iters = it
            break
        if sse < tol:
            status = 0
            iters = it
            break

    return w, iters, sse, status, traj


def project_grid(sizes, acts, w, xs, ts, ia, ib, avals, bvals):
    """SSE over the dataset at every (avals[i], bvals[j]) written into the
    two flat weight slots ia/ib; returns a row-major flat list (a-major)."""
    sizes = list(sizes)
    acts = list(acts)
    work = list(w)
    xs = list(xs)
    ts = list(ts)
    offs = _offsets(sizes)
    pre = [[0.0] * sizes[l + 1] for l in range(len(sizes) - 1)]
    post = [[0.0] * sizes[l + 1] for l in range(len(sizes) - 1)]
    out = [0.0] * (len(avals) * len(bvals))
    nb = len(bvals)
    for i, av in enumerate(avals):
        work[ia] = av
        for j, bv in enumerate(bvals):
            work[ib] = bv
            out[i * nb + j] = _sse(sizes, acts, work, offs, xs, ts, pre, post)
    return out
