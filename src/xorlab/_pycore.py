"""Pure-Python training, projection, lattice, scoring, copula-solve and
surface kernels, and network's forward and gradient passes.

A backend has eight kernels: train_run runs gradient descent,
project_grid gives the SSE at every cell of a plane of two weights,
forward_lattice gives a network's output at every point of a lattice,
fixed_scorer scores a lattice of outputs against classify's fixed
candidates, fs_scorer scores the s that classify's F_s fit tries against
it, solve_t runs copula.solve_s's bisection, grid_stats scans a surface
grid for its minimum, maximum, strict minima and plateau cells, and
grid_csv writes a grid's CSV text through a write function, a row at a
time.  sse_dataset is the one cell of project_grid that leaves the
weights as they are.  fixed_scorer returns score(outs), _max_abs_diff
for each of its rows, the deviation rule classify uses for every
candidate; fs_scorer returns score(s), copula.xor_f_lattice at
CopulaParam.finite(s) scored by _max_abs_diff.  Those two, solve_t (a
loop over copula._frank_raw), grid_stats (a row-wise scan) and grid_csv
(a row template) generate no code.

Each kernel runs straight-line Python generated once per network shape:
every weight lives in a local w0..wN, each unit's dot product, backward
delta and update is unrolled, and the activations are chosen while the
code is generated.  The code is compiled on first use (never at import)
and cached, one kind of kernel per cache, under a filename naming the
shape.  _train_kernel holds train_run per shape and mode, e.g. "<xorlab
train_run 2-2-1 relu-relu per_sample>".  _grid_kernel holds
project_grid per shape and pair of varied weight slots, e.g. "<xorlab
project_grid 2-2-1 tanh-tanh a=w0 b=w6>": each unit is computed before
the grid loops, once per row or once per cell, whichever is the
outermost its inputs allow.  _net_pass holds network's forward,
gradient and lattice pass, generated from the same unit lines: "<xorlab
forward 2-2-1 tanh-tanh>", and "<xorlab forward_lattice 2-2-1
tanh-tanh>" for the pass over a whole x-by-y lattice that
classification evaluates.  Only integers derived from sizes, activation
codes and indices, and _REST_EVERY, enter the generated text.

_Source pins the accumulation order (ascending input index, bias last)
and every other float operation of the one Python forward and backward
pass, as in the loop reference kept in tests/loop_kernels.py, which
kern.c (bound through ctypes by _cbackend) also mirrors, so every
backend produces bit-identical floats; keep them in lockstep when
editing any of them.  The backends differ only in which forward passes
they recompute.  Both backends' project_grid hoist each unit out of the
grid loops by one rule, written once in grid_levels: the generated
kernel is laid out from its list, and _cbackend hands the same list to
kern.c.  kern.c's train_run keeps every sample's forward values from its
SSE pass, and the next epoch's first sample reuses its own, where the
generated train_run computes them again (a Python twin that carried them
was slower).  Neither changes a unit's operands or their order, only
how often it is computed.
Each activation and its slope are written once in Python, in _ACT and
_SLOPE.  SSE_BLOWUP, _REST_EVERY and _PLATEAU_TOL are kern.c's values
too: xorlab.kernels passes each to its build as a -D flag.

Layout conventions shared with the compiled kernel:
  - sizes: layer widths including input, e.g. [2, 2, 1]
  - acts: one code per non-input layer; 0 id, 1 tanh, 2 sigmoid, 3 relu
    (any other code is relu)
  - weights: all layer matrices flattened row-major and concatenated,
    each row being (incoming weights..., bias); _offsets gives where
    each layer's block starts
  - xs: sample inputs flattened row-major; ts: one target per sample

train_run status codes: 0 converged, 1 hit max_iters, 2 SSE blowup,
3 non-finite state.

train_run stops early once the weights are at rest: after the status
checks of epoch 1 and of every _REST_EVERY-th epoch, the generated
at_rest (in the same source as train_run) asks whether an epoch would
leave every weight bit for bit as it is.  Then every later epoch would
end with the same weights and SSE and pass the same checks, so the run
returns them with iters = max_iters and status 1, the trajectory padded
with that SSE: every output is the one the full run gives.  A relu net
whose units are all dead at the initial weights is at rest after epoch
1.  The loop reference runs every epoch, which the parity tests use to
prove the exit exact.
"""

from __future__ import annotations

import functools
import math
import operator
from array import array

from .copula import CopulaParam, _frank_raw, _unit_axis, xor_f_lattice

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV53 = 1.0 / 9007199254740992.0    # 2 ** -53

SSE_BLOWUP = 1e6
# train_run checks for weights at rest after epoch 1 and every this many
# epochs: often enough to stop a run that comes to rest late, rarely
# enough that a run that never does pays for about one epoch in 256
_REST_EVERY = 256

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


def _same(x: float, y: float) -> bool:
    """x and y are one float, the sign of zero included; NaN is not."""
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


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
    """Flat offset of each layer's weight block, then the weight count:
    the one place Python works out the layout's block sizes."""
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


def _tuple(items) -> str:
    return "(" + ", ".join(items) + ",)"


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
        self.inputs = ", ".join(f"a0_{j}" for j in range(n_in))
        self.sample = self.inputs + ", t"
        self.data = ("data = [("
                     + "".join(f"xs[{n_in} * k + {j}], " for j in range(n_in))
                     + "ts[k]) for k in range(len(ts))]")

    def _delta(self, l: int, i: int) -> str:
        # only the first output unit feeds the error; the deltas of the
        # others stay 0.0 and still enter the sums and updates
        return "0.0" if l == self.top and i > 0 else f"d{l}_{i}"

    def _unit(self, l: int, i: int) -> list:
        """Unit i of layer l from the outputs a{l-1}_*: ascending input
        index, bias last."""
        n_prev = self.sizes[l - 1]
        row = self.offs[l - 1] + i * (n_prev + 1)
        z = f"z{l}_{i}"
        terms = [f"w{row + j} * a{l - 1}_{j}" for j in range(n_prev)]
        return (_sum(z, terms + [f"w{row + n_prev}"])
                + [f"a{l}_{i} = " + _ACT[self.acts[l - 1]].format(z=z)])

    def _forward(self) -> list:
        """Every unit from the inputs a0_*."""
        return [line for l in range(1, self.top + 1)
                for i in range(self.sizes[l]) for line in self._unit(l, i)]

    def _backward(self, halved: bool = True) -> list:
        """Every delta, E = (out - t)^2 / 2 (or (out - t)^2 unless halved),
        from the weights before this sample's update.

        The halved-error convention folds the constant 2 into the learning
        rate, as in the classic backprop texts.
        """
        top = self.top
        lines = [f"d{top}_0 = {'' if halved else '2.0 * '}(a{top}_0 - t) * "
                 + _SLOPE[self.acts[top - 1]].format(z=f"z{top}_0",
                                                     a=f"a{top}_0")]
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

    def _partials(self) -> list:
        """The partial of each weight from the deltas, in flat order."""
        partials = []
        for l in range(1, self.top + 1):
            for i in range(self.sizes[l]):
                d = self._delta(l, i)
                partials += [f"{d} * a{l - 1}_{j}"
                             for j in range(self.sizes[l - 1])] + [d]
        return partials

    def _updates(self, per_sample: bool) -> list:
        """Per sample, the weight updates; full batch, the gradient sums."""
        return [f"w{k} -= lr * ({p})" if per_sample else f"g{k} += {p}"
                for k, p in enumerate(self._partials())]

    def _sse(self, depth: int) -> list:
        """The squared error summed over data into sse."""
        return (_indent(["sse = 0.0", f"for {self.sample} in data:"], depth)
                + _indent(self._forward()
                          + [f"e = a{self.top}_0 - t", "sse += e * e"],
                          depth + 1))

    def at_rest(self, per_sample: bool) -> list:
        """Whether an epoch would leave the weights w* bit for bit as they
        are, the sign of zero included.

        Per sample, each sample's own update at w* must give back every
        weight; then no order of the samples moves them either.  Full
        batch, the update summed over data in data order must.  The
        sums and updates are the epoch's own lines.
        """
        n_weights = self.offs[-1]
        body = self._forward() + self._backward()
        if per_sample:
            still = " and ".join(f"_same(w{k}, w{k} - lr * ({p}))"
                                 for k, p in enumerate(self._partials()))
            head, tail = [], ["return True"]
            body += [f"if not ({still}):", "    return False"]
        else:
            head = [" = ".join(f"g{k}" for k in range(n_weights)) + " = 0.0"]
            tail = ["return " + " and ".join(
                f"_same(w{k}, w{k} - lr * g{k})" for k in range(n_weights))]
            body += self._updates(per_sample)
        return [f"def at_rest(data, lr, {self.weights}):",
                *_indent([*head, f"for {self.sample} in data:"], 1),
                *_indent(body, 2), *_indent(tail, 1)]

    def train_run(self, per_sample: bool) -> list:
        """at_rest and train_run, which runs gradient descent.

        After the status checks of epoch 1 and of every _REST_EVERY-th
        epoch, a run whose weights are at rest returns: each later epoch
        would end with the same weights and SSE, pass the same checks and
        record the same SSE, until max_iters.
        """
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
        return self.at_rest(per_sample) + [
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
            f"        if (it == 1 or it % {_REST_EVERY} == 0) and at_rest("
            f"data, lr, {self.weights}):",
            "            if record:",
            "                traj.extend([sse] * (max_iters - it))",
            "            break",
            f"    return [{self.weights}], iters, sse, status, traj",
        ]

    def project_grid(self, a, b) -> list:
        """SSE per cell with weight a bound to each avals entry in the
        outer loop and weight b to each bvals entry in the inner one.

        Each unit is computed once per sample at its grid_levels level:
        before both loops (0), once per avals entry (1) or once per cell
        (2).  When a == b both loops bind one local, so b wins; a slot
        past the network is a local that nothing reads.  The per-sample
        values a later level reads are carried in a list of tuples per
        level, in sample order, and sse is summed at the output unit's
        level, so every float is the one the loop reference computes.
        Only the first output unit feeds the error; the other output
        units are not computed.
        """
        n_in = self.sizes[0]
        levels = grid_levels(self.sizes, a, b)
        names = [f"a0_{j}" for j in range(n_in)] + ["t"]
        level = dict.fromkeys(names, 0)
        uses = {}           # unit output (and "sse") -> the values read
        work = ([], [], [])         # the forward lines of each level
        for l in range(1, self.top + 1):
            ins = [f"a{l - 1}_{j}" for j in range(self.sizes[l - 1])]
            for i in range(self.sizes[l] if l < self.top else 1):
                out = f"a{l}_{i}"
                level[out] = levels[sum(self.sizes[1:l]) + i]
                names.append(out)
                uses[out] = ins
                work[level[out]].extend(self._unit(l, i))
        top = level[f"a{self.top}_0"]       # no unit sits deeper
        uses["sse"] = [f"a{self.top}_0", "t"]
        level["sse"] = top

        def read_after(k):
            return {v for u, vs in uses.items() if level[u] > k for v in vs}

        blocks = ([], [], [])
        source, tuple_of = "data", self.sample
        for k in range(top + 1):
            if not work[k]:
                continue
            loop = [f"for {tuple_of} in {source}:"]
            if k == top:
                blocks[k].extend(["sse = 0.0", *loop] + _indent(
                    work[k] + [f"e = a{self.top}_0 - t", "sse += e * e"],
                    1))
                break
            later = read_after(k)
            carry = [v for v in names if level[v] <= k and v in later]
            tuple_of = ", ".join(carry) + ("," if len(carry) == 1 else "")
            source = f"c{k}"
            blocks[k].extend([f"{source} = []", *loop] + _indent(
                work[k] + [f"{source}.append(({tuple_of}))"], 1))
        return [
            "def project_grid(w, xs, ts, avals, bvals):",
            "    " + self.data,
            f"    {self.weights} = w",
            *_indent(blocks[0], 1),
            "    out = []",
            f"    for w{a} in avals:",
            *_indent(blocks[1], 2),
            f"        for w{b} in bvals:",
            *_indent(blocks[2], 3),
            "            out.append(sse)",
            "    return array('d', out)",
        ]

    def forward(self) -> list:
        """Each layer's pre-activations and outputs at the inputs x."""
        def layers(v):
            return _tuple(_tuple(f"{v}{l}_{i}" for i in range(self.sizes[l]))
                          for l in range(1, self.top + 1))
        return [
            "def forward(w, x):",
            f"    {self.weights} = w",
            f"    {self.inputs}, = x",
            *_indent(self._forward(), 1),
            f"    return {layers('z')}, {layers('a')}",
        ]

    def forward_lattice(self) -> list:
        """The first output at every (x, y) of xs x xs, row-major: the
        lines of forward inside a loop over the lattice (two inputs)."""
        return [
            "def forward_lattice(w, xs):",
            f"    {self.weights} = w",
            "    out = []",
            "    emit = out.append",
            "    for a0_0 in xs:",
            "        for a0_1 in xs:",
            *_indent(self._forward() + [f"emit(a{self.top}_0)"], 3),
            "    return out",
        ]

    def gradient(self) -> list:
        """Every partial of E = (out - t)^2 at the inputs x, flat."""
        return [
            "def gradient(w, x, t):",
            f"    {self.weights} = w",
            f"    {self.inputs}, = x",
            *_indent(self._forward() + self._backward(halved=False), 1),
            f"    return [{', '.join(self._partials())}]",
        ]


_NAMESPACE = {"tanh": math.tanh, "isfinite": math.isfinite, "inf": math.inf,
              "_sigmoid": _sigmoid, "_SplitMix": _SplitMix, "_same": _same,
              "SSE_BLOWUP": SSE_BLOWUP, "array": array}


def _build(kernel: str, lines: list, filename: str):
    namespace = dict(_NAMESPACE)
    exec(compile("\n".join(lines) + "\n", filename, "exec"), namespace)
    return namespace[kernel]


def _tag(sizes: tuple, acts: tuple) -> str:
    return (f"{'-'.join(map(str, sizes))} "
            f"{'-'.join(_ACT_NAMES[c] for c in acts)}")


@functools.lru_cache(maxsize=32)
def _train_kernel(sizes: tuple, acts: tuple, per_sample: bool):
    """The generated train_run for one shape and mode, built on first
    use."""
    mode = "per_sample" if per_sample else "full_batch"
    return _build("train_run", _Source(sizes, acts).train_run(per_sample),
                  f"<xorlab train_run {_tag(sizes, acts)} {mode}>")


@functools.lru_cache(maxsize=32)
def _net_pass(kernel: str, sizes: tuple, acts: tuple):
    """network's forward, forward_lattice or gradient for one shape,
    which take exactly the network's weights."""
    return _build(kernel, getattr(_Source(sizes, acts), kernel)(),
                  f"<xorlab {kernel} {_tag(sizes, acts)}>")


# one kernel per weight pair: all 36 pairs of a 2-2-1 net, for two
# activation choices, fit with room to spare (each holds about 3 KB)
_GRID_KERNELS = 128


@functools.lru_cache(maxsize=_GRID_KERNELS)
def _grid_kernel(sizes: tuple, acts: tuple, a: int, b: int):
    """The generated project_grid for one shape and one pair of varied
    weight slots, built on first use.  A cache of its own, so that the
    pairs of an all-pairs run do not evict the training kernels."""
    return _build("project_grid", _Source(sizes, acts).project_grid(a, b),
                  f"<xorlab project_grid {_tag(sizes, acts)} a=w{a} b=w{b}>")


# ---------------------------------------------------------------------------
# entry points

def train_run(sizes, acts, xs, ts, lr, max_iters, tol, per_sample,
              seed, init_range, record):
    """Gradient-descent run; returns (weights, iters, sse, status, traj).

    One iteration is one pass over the data: n shuffled single-sample
    updates in per_sample mode, one aggregate update otherwise.  The
    shuffle and the init share a single splitmix64 stream.
    """
    sizes, acts = _shape(sizes, acts)
    run = _train_kernel(sizes, acts, bool(per_sample))
    return run(list(xs), list(ts), float(lr), max_iters, float(tol), seed,
               float(init_range), record)


def grid_levels(sizes, ia, ib) -> list:
    """The loop level of every unit of a project_grid over the flat
    weight slots ia and ib (each in range), in flat unit order: 2 if the
    unit's weight row holds ib, 1 if it holds ia, else 0, and never below
    the highest level of the layer beneath.  A slot past the network
    reaches no unit.  The one copy of project_grid's hoisting rule."""
    offs, levels, below = _offsets(sizes), [], 0
    for l in range(1, len(sizes)):
        width = sizes[l - 1] + 1            # the slots of one weight row
        layer = [max(below, 2 if k <= ib < k + width
                     else 1 if k <= ia < k + width else 0)
                 for k in range(offs[l - 1], offs[l], width)]
        levels += layer
        below = max(layer)
    return levels


def project_grid(sizes, acts, w, xs, ts, ia, ib, avals, bvals):
    """SSE over the dataset at every (avals[i], bvals[j]) written into the
    two flat weight slots ia/ib; returns a row-major flat array('d')
    (a-major), the type the compiled backend returns too.

    IndexError if a slot lies outside w.  A slot past the network's own
    weights changes nothing, and when ia == ib the b value wins.
    """
    sizes, acts = _shape(sizes, acts)
    w = list(w)
    n_weights = _offsets(sizes)[-1]
    check_weights(w, n_weights)
    slots = range(len(w))
    return _grid_kernel(sizes, acts, slots[ia], slots[ib])(
        w[:n_weights], list(xs), list(ts), avals, bvals)


def check_lattice(sizes) -> None:
    """ValueError unless the network takes two inputs, a lattice point's
    x and y."""
    if sizes[0] != 2:
        raise ValueError(f"a lattice pass needs 2 inputs, got {sizes[0]}")


def forward_lattice(sizes, acts, w, axis) -> list:
    """The first output of the network at every (x, y) of axis x axis,
    row-major, as a list: entry i * len(axis) + j is the output at
    (axis[i], axis[j]), from network's generated lattice pass.

    ValueError unless the network has two inputs, IndexError if w is too
    short; extra weights are ignored.
    """
    sizes, acts = _shape(sizes, acts)
    check_lattice(sizes)
    n_weights = _offsets(sizes)[-1]
    check_weights(w, n_weights)
    return _net_pass("forward_lattice", sizes, acts)(
        w[:n_weights], [float(v) for v in axis])


def sse_dataset(sizes, acts, w, xs, ts, project_grid=project_grid) -> float:
    """Sum of squared errors of the network over the dataset: the one
    cell of project_grid that leaves the weights as they are.  Another
    backend passes its own project_grid."""
    w = list(w)
    keep = w[:1]
    return project_grid(sizes, acts, w, xs, ts, 0, 0, keep, keep)[0]


# ---------------------------------------------------------------------------
# classify's scorers

def check_cells(values, cells: int) -> None:
    """IndexError when values is too short for a lattice or grid of cells
    cells; extra values are ignored."""
    if len(values) < cells:
        raise IndexError(f"{len(values)} values, the grid has {cells}")


def _max_abs_diff(outs, ref, points=None) -> float:
    """Largest |out - ref| over a lattice, or over its flat indices points
    (ref then holds the reference at those points); inf when points is
    empty.  outs must be finite, since max() keeps or skips a NaN
    depending on where it sits."""
    if points is not None:
        outs = map(outs.__getitem__, points)
    return max(map(abs, map(operator.sub, outs, ref)), default=math.inf)


def fixed_rows(rows) -> tuple:
    """The rows of a fixed scorer as tuples, and the number of outputs
    they read: a row (points, ref) reads outs[points[k]] for each k, or
    outs[k] for each k of ref when points is None.  ValueError when a
    row's points and ref differ in length, IndexError for a negative
    point."""
    rows = tuple((None if points is None else tuple(points), tuple(ref))
                 for points, ref in rows)
    cells = 0
    for points, ref in rows:
        if points is None:
            cells = max(cells, len(ref))
        elif len(points) != len(ref):
            raise ValueError(f"{len(points)} points for {len(ref)} "
                             "reference values")
        elif points:
            if min(points) < 0:
                raise IndexError(f"point {min(points)} is negative")
            cells = max(cells, max(points) + 1)
    return rows, cells


def fixed_scorer(rows):
    """score(outs) for a lattice of outputs outs: the list of the largest
    |out - ref| of each row (points, ref) of rows, over the flat indices
    points of outs (every index of ref when points is None), by
    _max_abs_diff, so inf for an empty row.  Built once per set of rows;
    score raises IndexError if outs is too short for a row, and
    fixed_rows's errors are raised here.
    """
    rows, cells = fixed_rows(rows)

    def score(outs):
        check_cells(outs, cells)
        return [_max_abs_diff(outs, ref, points) for points, ref in rows]

    return score


def fs_scorer(outs, axis):
    """The F_s fit's score of the lattice outputs outs (row-major over
    axis x axis): score(s) is the largest |out - F_s| over the lattice,
    F_s being copula.xor_f_lattice at CopulaParam.finite(s), which snaps
    s onto the One window and raises DomainError for s <= 0 or NaN; score
    raises xor_f_lattice's DomainError too.  IndexError if outs is too
    short, and _unit's DomainError if an axis value is not a probability.
    """
    axis = _unit_axis(tuple(axis))
    check_cells(outs, len(axis) ** 2)

    def score(s):
        return _max_abs_diff(outs, xor_f_lattice(CopulaParam.finite(s), axis))

    return score


# ---------------------------------------------------------------------------
# copula.solve_s's bisection

def solve_t(x: float, y: float, p: float, iters: int) -> float:
    """The t = s / (1 + s) in (0, 1) at which A_s(x, y) = p, by bisection.

    A_s decreases in s, so each step halves the bracket (lo, hi) of t,
    starting from (0, 1).  A step is a pure function of the bracket, so the
    search stops as soon as one cannot move it (its midpoint equals the
    end it would replace), and at most after iters steps; it returns the
    midpoint of the final bracket.  x, y and p must have passed
    copula._unit, and p must be at least max(x + y - 1, 0), so that the
    bracket never reaches t = 1.
    """
    lo, hi = 0.0, 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        s_mid = mid / (1.0 - mid)
        if _frank_raw(s_mid, x, y) > p:
            if mid == lo:
                break         # at rest: every later step is this one
            lo = mid          # need more s to bring A down
        else:
            if mid == hi:
                break
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# surface statistics and CSV text

_PLATEAU_TOL = 1e-12


def grid_stats(values, n: int) -> tuple:
    """(min, its flat index, max, strict minima, plateau cells) of the
    n x n a-major grid values, n >= 3, by a brute-force 4-neighbourhood
    scan.

    A strict local minimum beats every existing neighbour with raw <;
    a plateau cell lies within 1e-12 of at least one.  The minimum is the
    first cell in row-major order that no earlier cell beats with <, and
    NaN cells never count for the minimum or the maximum (+inf and -inf
    when every cell is NaN).

    The scan runs row by row: each row is zipped with the rows above and
    below and with its copies shifted left and right, a missing neighbour
    being +inf for the strict test and NaN for the plateau test, neither
    of which can change a verdict.  min() and max() do not skip a NaN,
    so they take each row without its NaN cells.
    """
    check_cells(values, n * n)
    v = [tuple(values[i * n:(i + 1) * n]) for i in range(n)]
    min_val = math.inf
    max_val = -math.inf
    min_idx = 0
    strict = 0
    plateau = 0
    tol = _PLATEAU_TOL
    inf, nan = math.inf, math.nan
    inf_row, nan_row = (inf,) * n, (nan,) * n
    for i, row in enumerate(v):
        total = sum(row)
        # a NaN cell makes the sum NaN
        cells = row if total == total else [x for x in row if x == x]
        if cells:
            low = min(cells)
            if low < min_val:
                min_val = low
                min_idx = i * n + row.index(low)
            high = max(cells)
            if high > max_val:
                max_val = high
        above = v[i - 1] if i > 0 else None
        below = v[i + 1] if i < n - 1 else None
        left, right = row[:-1], row[1:]
        strict += sum(1 for x, u, d, l, r in zip(
            row, above or inf_row, below or inf_row, (inf,) + left,
            right + (inf,))
            if x < u and x < d and x < l and x < r)
        plateau += sum(1 for x, u, d, l, r in zip(
            row, above or nan_row, below or nan_row, (nan,) + left,
            right + (nan,))
            if abs(x - u) <= tol or abs(x - d) <= tol
            or abs(x - l) <= tol or abs(x - r) <= tol)
    return min_val, min_idx, max_val, strict, plateau


def grid_csv(write, header: bytes, axis_a, axis_b, values) -> None:
    """header (when not empty), then one line "a,b,value" per cell of the
    a-major grid values over axis_a x axis_b, every number as '%.17g'
    writes it, through write: the header, then each row's lines as one
    bytes object.

    axis_b is formatted once into a row template, so each row is one
    '%' operation; '%.17g' % x is format(x, '.17g') for every float, inf
    and NaN included (NaN is "nan", whatever its sign).  Each row is
    encoded and written on its own, so the text of a grid is never whole
    in memory: one large block would be returned to the system, and
    faulted in again, on every grid.
    """
    na, nb = len(axis_a), len(axis_b)
    check_cells(values, na * nb)
    row_format = "".join(f"%s,{format(b, '.17g')},%.17g\n" for b in axis_b)
    cells = [None] * (2 * nb)
    if header:
        write(header)
    for i in range(na if nb else 0):    # an empty row is not written
        cells[0::2] = [format(axis_a[i], ".17g")] * nb
        cells[1::2] = values[i * nb:(i + 1) * nb]
        write((row_format % tuple(cells)).encode())
