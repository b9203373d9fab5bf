"""Pure-Python training and projection kernels.

Each kernel runs straight-line Python generated once per network shape:
every weight lives in a local w0..wN, each unit's dot product, backward
delta and update is unrolled, and the activations are chosen while the
code is generated.  The code is compiled on first use (never at import)
and cached per (kernel, sizes, activation codes, mode), under a filename
naming the shape, e.g. "<xorlab train_run 2-2-1 relu-relu per_sample>".
Only integers derived from sizes, activation codes and indices enter the
generated text.

The generated code performs the same float operations in the same order
as the loop reference kept in tests/loop_kernels.py, which kern.c (bound
through ctypes by _cbackend) also mirrors, so every backend produces
bit-identical floats; keep them in lockstep when editing any of them.
network.SIGMOID uses _sigmoid from here, so the sigmoid is written once
in Python.

Layout conventions shared with the compiled kernel:
  - sizes: layer widths including input, e.g. [2, 2, 1]
  - acts: one code per non-input layer; 0 id, 1 tanh, 2 sigmoid, 3 relu
    (any other code is relu)
  - weights: all layer matrices flattened row-major and concatenated,
    each row being (incoming weights..., bias)
  - xs: sample inputs flattened row-major; ts: one target per sample

train_run status codes: 0 converged, 1 hit max_iters, 2 SSE blowup,
3 non-finite state.
"""

from __future__ import annotations

import functools
import math
import operator

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV53 = 1.0 / 9007199254740992.0    # 2 ** -53

SSE_BLOWUP = 1e6

BACKEND = "python"


class _SplitMix:
    """splitmix64; one stream drives init and the shuffle draws."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        return z ^ (z >> 31)

    def next_unit(self) -> float:
        return (self.next_u64() >> 11) * _INV53


def rng_uniform(seed: int, count: int) -> list:
    """count draws in [0, 1) from the seed's stream."""
    rng = _SplitMix(seed)
    return [rng.next_unit() for _ in range(count)]


def _sigmoid(z: float) -> float:
    # sign branch keeps exp() from overflowing for large |z|
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def check_network(sizes, acts) -> None:
    """ValueError unless sizes and acts describe a network: at least one
    layer of weights, no empty layer, and a code for every layer."""
    nlayers = len(sizes) - 1
    if nlayers < 1 or min(sizes) < 1 or len(acts) < nlayers:
        raise ValueError(
            f"not a network: sizes {list(sizes)}, acts {list(acts)}")


def check_weights(w, n_weights: int) -> None:
    """IndexError when w is too short for the network; extra weights are
    ignored."""
    if len(w) < n_weights:
        raise IndexError(f"{len(w)} weights, the network has {n_weights}")


def _shape(sizes, acts) -> tuple:
    """The cache key of a network: int sizes and activation codes 0..3."""
    sizes = tuple(map(operator.index, sizes))
    check_network(sizes, acts)
    codes = tuple(int(c) if c in (0, 1, 2) else 3
                  for c in acts[:len(sizes) - 1])
    return sizes, codes


def _offsets(sizes) -> list:
    """Flat offset of each layer's weight block."""
    offs = [0]
    for l in range(len(sizes) - 1):
        offs.append(offs[-1] + sizes[l + 1] * (sizes[l] + 1))
    return offs


# ---------------------------------------------------------------------------
# code generation
#
# Unit i of layer l (the input is layer 0) has the locals z{l}_{i} (its
# pre-activation), a{l}_{i} (its output; a0_* are the sample's inputs)
# and d{l}_{i} (its delta dE/dz); t is the sample's target and w{k} the
# weight at flat index k.

_ACT_NAMES = ("id", "tanh", "sigmoid", "relu")
_ACT = ("{z}", "tanh({z})", "_sigmoid({z})", "{z} if {z} > 0.0 else 0.0")
_SLOPE = ("1.0", "(1.0 - {a} * {a})", "({a} * (1.0 - {a}))",
          "(1.0 if {z} > 0.0 else 0.0)")
# terms per line of an unrolled sum, so wide layers compile into shallow
# expression trees
_CHUNK = 16


def _sum(target: str, terms: list, scale: str = "") -> list:
    """Lines setting target to 0.0 + terms[0] + terms[1] + ..., added
    left to right, then multiplied by scale if one is given."""
    lines = []
    acc = "0.0"
    for k in range(0, len(terms), _CHUNK):
        expr = " + ".join([acc, *terms[k:k + _CHUNK]])
        lines.append(f"{target} = {expr}")
        acc = target
    if scale:
        lines[-1] = f"{target} = ({expr}) * {scale}"
    return lines


def _indent(lines, depth: int) -> list:
    return ["    " * depth + line for line in lines]


class _Source:
    """Source lines of the kernels of one network shape."""

    def __init__(self, sizes: tuple, acts: tuple):
        self.sizes = sizes
        self.acts = acts
        self.offs = _offsets(sizes)
        self.top = len(sizes) - 1
        n_in = sizes[0]
        self.weights = ", ".join(f"w{k}" for k in range(self.offs[-1]))
        self.sample = ", ".join(f"a0_{j}" for j in range(n_in)) + ", t"
        self.data = ("data = [("
                     + "".join(f"xs[{n_in} * k + {j}], " for j in range(n_in))
                     + "ts[k]) for k in range(len(ts))]")

    def _delta(self, l: int, i: int) -> str:
        # only the first output unit feeds the error; the deltas of the
        # others stay 0.0 and still enter the sums and updates
        return "0.0" if l == self.top and i > 0 else f"d{l}_{i}"

    def _forward(self) -> list:
        """Every unit from the inputs a0_*: ascending input index, bias
        last."""
        lines = []
        for l in range(1, self.top + 1):
            n_prev = self.sizes[l - 1]
            for i in range(self.sizes[l]):
                row = self.offs[l - 1] + i * (n_prev + 1)
                z = f"z{l}_{i}"
                terms = [f"w{row + j} * a{l - 1}_{j}" for j in range(n_prev)]
                lines += _sum(z, terms + [f"w{row + n_prev}"])
                lines.append(f"a{l}_{i} = "
                             + _ACT[self.acts[l - 1]].format(z=z))
        return lines

    def _backward(self) -> list:
        """Every delta, E = (out - t)^2 / 2, from the weights before this
        sample's update.

        The halved-error convention folds the constant 2 into the learning
        rate, as in the classic backprop texts.
        """
        top = self.top
        lines = [f"d{top}_0 = (a{top}_0 - t) * " + _SLOPE[
            self.acts[top - 1]].format(z=f"z{top}_0", a=f"a{top}_0")]
        for l in range(top - 1, 0, -1):
            width = self.sizes[l]
            for j in range(width):
                terms = [f"{self._delta(l + 1, i)} * "
                         f"w{self.offs[l] + i * (width + 1) + j}"
                         for i in range(self.sizes[l + 1])]
                slope = _SLOPE[self.acts[l - 1]].format(z=f"z{l}_{j}",
                                                        a=f"a{l}_{j}")
                lines += _sum(f"d{l}_{j}", terms, slope)
        return lines

    def _updates(self, per_sample: bool) -> list:
        """Per sample, the weight updates; full batch, the gradient sums."""
        lines = []
        for l in range(1, self.top + 1):
            n_prev = self.sizes[l - 1]
            for i in range(self.sizes[l]):
                row = self.offs[l - 1] + i * (n_prev + 1)
                d = self._delta(l, i)
                for j in range(n_prev):
                    lines.append(f"w{row + j} -= lr * ({d} * a{l - 1}_{j})"
                                 if per_sample else
                                 f"g{row + j} += {d} * a{l - 1}_{j}")
                lines.append(f"w{row + n_prev} -= lr * {d}" if per_sample
                             else f"g{row + n_prev} += {d}")
        return lines

    def _sse(self, depth: int) -> list:
        """The squared error summed over data into sse."""
        return (_indent(["sse = 0.0", f"for {self.sample} in data:"], depth)
                + _indent(self._forward()
                          + [f"e = a{self.top}_0 - t", "sse += e * e"],
                          depth + 1))

    def train_run(self, per_sample: bool) -> list:
        n_weights = self.offs[-1]
        body = self._forward() + self._backward() + self._updates(per_sample)
        if per_sample:
            # shuffling a copy of data in place draws the same permutations
            # as shuffling an index list that starts as the identity
            step = _indent([
                "for i in range(len(visit) - 1, 0, -1):",
                "    j = next_u64() % (i + 1)",
                "    visit[i], visit[j] = visit[j], visit[i]",
                f"for {self.sample} in visit:"], 2) + _indent(body, 3)
        else:
            grads = " = ".join(f"g{k}" for k in range(n_weights))
            step = _indent([f"{grads} = 0.0", f"for {self.sample} in data:"],
                           2) + _indent(body, 3) + _indent(
                [f"w{k} -= lr * g{k}" for k in range(n_weights)], 2)
        finite = " and ".join(f"isfinite(w{k})" for k in range(n_weights))
        return [
            "def train_run(xs, ts, lr, max_iters, tol, seed, init_range,"
            " record):",
            "    " + self.data,
            "    rng = _SplitMix(seed)",
            "    unit = rng.next_unit",
            "    next_u64 = rng.next_u64",
            f"    {self.weights} = [(2.0 * unit() - 1.0) * init_range"
            f" for _ in range({n_weights})]",
            "    visit = list(data)",
            "    traj = []",
            "    status = 1",
            "    iters = max_iters",
            "    sse = inf",
            "    for it in range(1, max_iters + 1):",
            *step,
            *self._sse(2),
            "        if record:",
            "            traj.append(sse)",
            f"        if not (isfinite(sse) and {finite}):",
            "            status = 3",
            "            iters = it",
            "            break",
            "        if sse > SSE_BLOWUP:",
            "            status = 2",
            "            iters = it",
            "            break",
            "        if sse < tol:",
            "            status = 0",
            "            iters = it",
            "            break",
            f"    return [{self.weights}], iters, sse, status, traj",
        ]

    def project_grid(self) -> list:
        # w holds the network's weights plus one scratch slot
        return [
            "def project_grid(w, xs, ts, ia, ib, avals, bvals):",
            "    " + self.data,
            "    out = []",
            "    for av in avals:",
            "        w[ia] = av",
            "        for bv in bvals:",
            "            w[ib] = bv",
            f"            {self.weights}, _ = w",
            *self._sse(3),
            "            out.append(sse)",
            "    return out",
        ]

    def sse_dataset(self) -> list:
        return [
            "def sse_dataset(w, xs, ts):",
            "    " + self.data,
            f"    {self.weights} = w",
            *self._sse(1),
            "    return sse",
        ]


@functools.lru_cache(maxsize=32)
def _compiled(kernel: str, sizes: tuple, acts: tuple, per_sample=None):
    """The generated kernel for one shape, built on first use;
    per_sample is None except for train_run."""
    source = _Source(sizes, acts)
    if per_sample is None:
        lines, mode = getattr(source, kernel)(), ""
    else:
        lines = source.train_run(per_sample)
        mode = " per_sample" if per_sample else " full_batch"
    filename = (f"<xorlab {kernel} {'-'.join(map(str, sizes))} "
                f"{'-'.join(_ACT_NAMES[c] for c in acts)}{mode}>")
    namespace = {"tanh": math.tanh, "isfinite": math.isfinite,
                 "inf": math.inf, "_sigmoid": _sigmoid,
                 "_SplitMix": _SplitMix, "SSE_BLOWUP": SSE_BLOWUP}
    exec(compile("\n".join(lines) + "\n", filename, "exec"), namespace)
    return namespace[kernel]


# ---------------------------------------------------------------------------
# entry points

def _weights(sizes, w) -> list:
    """The network's own weights from w; IndexError if w is too short."""
    w = list(w)
    n_weights = _offsets(sizes)[-1]
    check_weights(w, n_weights)
    return w[:n_weights]


def sse_dataset(sizes, acts, w, xs, ts) -> float:
    """Sum of squared errors of the network over the dataset."""
    sizes, acts = _shape(sizes, acts)
    return _compiled("sse_dataset", sizes, acts)(
        _weights(sizes, w), list(xs), list(ts))


def train_run(sizes, acts, xs, ts, lr, max_iters, tol, per_sample,
              seed, init_range, record):
    """Gradient-descent run; returns (weights, iters, sse, status, traj).

    One iteration is one pass over the data: n shuffled single-sample
    updates in per_sample mode, one aggregate update otherwise.  The
    shuffle and the init share a single splitmix64 stream.
    """
    sizes, acts = _shape(sizes, acts)
    run = _compiled("train_run", sizes, acts, bool(per_sample))
    return run(list(xs), list(ts), float(lr), max_iters, float(tol), seed,
               float(init_range), record)


def project_grid(sizes, acts, w, xs, ts, ia, ib, avals, bvals):
    """SSE over the dataset at every (avals[i], bvals[j]) written into the
    two flat weight slots ia/ib; returns a row-major flat list (a-major).

    IndexError if a slot lies outside w.  A slot past the network's own
    weights changes nothing, so it is written into a scratch slot.
    """
    sizes, acts = _shape(sizes, acts)
    w = list(w)
    slots = range(len(w))
    work = _weights(sizes, w)
    scratch = len(work)
    return _compiled("project_grid", sizes, acts)(
        work + [0.0], list(xs), list(ts), min(slots[ia], scratch),
        min(slots[ib], scratch), avals, bvals)
