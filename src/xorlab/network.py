"""Feedforward networks with bias-augmented weight matrices.

The weight matrix of layer l has shape n_{l+1} x (n_l + 1): the last
column is the bias, so the layer computes f(W . [prev; 1]).  Published
weight tables in that convention paste in directly.

forward, forward_lattice and gradient run the straight-line code
xorlab._pycore generates per network shape (cached in _pycore._net_pass;
forward_lattice runs forward's unit lines in a loop over a lattice): the
accumulation order (ascending input index, bias last) is pinned there and
mirrored in kern.c.
Activations compile apply and slope from the same templates.  The flat
weight layout is worked out once, by _pycore._offsets; from_flat,
flat_weights (computed once per network) and count_weights follow it.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path

from ._pycore import _ACT, _ACT_NAMES, _SLOPE, _build, _net_pass, _offsets
from .errors import (ArityError, ModelFormatError, NotLinearError,
                     ShapeError, SpecSyntaxError)
from .linalg import Matrix, mat_mul

__all__ = [
    "Activation", "ID", "TANH", "SIGMOID", "RELU", "ACTIVATIONS",
    "Topology", "Network", "ForwardTrace",
    "parse_spec", "parse_sizes", "count_weights",
    "forward", "forward_lattice", "gradient", "collapse_linear",
    "save_model", "load_model",
]


class Activation:
    """A scalar activation and its derivative.

    slope() takes both the pre-activation z and the activation value a so
    each tag can use whichever is cheaper (tanh and sigmoid differentiate
    through a, relu through z).
    """

    __slots__ = ("tag", "code", "apply", "slope")

    def __init__(self, tag, code):
        self.tag = tag
        self.code = code      # stable integer id shared with the kernels
        self.apply = _build("apply", [
            "def apply(z):", "    return " + _ACT[code].format(z="z")],
            f"<xorlab apply {_ACT_NAMES[code]}>")
        self.slope = _build("slope", [
            "def slope(z, a):",
            "    return " + _SLOPE[code].format(z="z", a="a")],
            f"<xorlab slope {_ACT_NAMES[code]}>")

    def __repr__(self):
        return f"Activation({self.tag})"

    def __eq__(self, other):
        return isinstance(other, Activation) and other.tag == self.tag

    def __hash__(self):
        return hash(self.tag)


# one per _pycore._ACT_NAMES entry, its index being the code; relu's
# slope at the fold z = 0 is 0, matching u(t) = 0 for t <= 0
ACTIVATIONS = {name: Activation(name.capitalize(), code)
               for code, name in enumerate(_ACT_NAMES)}
ID, TANH, SIGMOID, RELU = ACTIVATIONS.values()


@dataclass(frozen=True)
class Topology:
    """Layer sizes plus one activation per non-input layer."""

    layer_sizes: tuple[int, ...]
    activations: tuple[Activation, ...]

    def __post_init__(self):
        sizes = self.layer_sizes
        if len(sizes) < 2:
            raise SpecSyntaxError(
                f"need at least input and output layers, got {sizes}")
        if any((not isinstance(n, int)) or n < 1 for n in sizes):
            raise SpecSyntaxError(f"layer sizes must be positive: {sizes}")
        if len(self.activations) != len(sizes) - 1:
            raise ArityError(
                f"{len(sizes)} layers need {len(sizes) - 1} activations, "
                f"got {len(self.activations)}")

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_outputs(self) -> int:
        return self.layer_sizes[-1]

    @functools.cached_property
    def codes(self) -> tuple[int, ...]:
        """The activation codes, as the kernels take them."""
        return tuple(a.code for a in self.activations)

    def weight_shapes(self) -> tuple[tuple[int, int], ...]:
        s = self.layer_sizes
        return tuple((s[l + 1], s[l] + 1) for l in range(len(s) - 1))

    def render(self) -> str:
        sizes = "-".join(str(n) for n in self.layer_sizes)
        acts = "-".join(a.tag.lower() for a in self.activations)
        return f"{sizes}/inp-{acts}"


def parse_sizes(text: str) -> tuple[int, ...]:
    parts = text.strip().split("-")
    sizes = []
    for p in parts:
        if not p.isdigit() or int(p) < 1:
            raise SpecSyntaxError(
                f"bad layer size {p!r} in {text!r}; expected positive "
                f"integers joined by '-'")
        sizes.append(int(p))
    if len(sizes) < 2:
        raise SpecSyntaxError(
            f"topology {text!r} needs at least two layers")
    return tuple(sizes)


def parse_spec(text: str) -> Topology:
    """Parse "2-2-1/inp-tanh-tanh" style topology strings.

    Activation names are case-insensitive; the list length must match the
    number of non-input layers.
    """
    head, sep, tail = text.strip().partition("/")
    if not sep:
        raise SpecSyntaxError(
            f"missing '/' in topology spec {text!r}; expected e.g. "
            f"2-2-1/inp-tanh-tanh")
    sizes = parse_sizes(head)
    act_parts = tail.split("-")
    if not act_parts or act_parts[0].lower() != "inp":
        raise SpecSyntaxError(
            f"activation list in {text!r} must start with 'inp'")
    acts = []
    for tag in act_parts[1:]:
        try:
            acts.append(ACTIVATIONS[tag.lower()])
        except KeyError:
            known = ", ".join(ACTIVATIONS)
            raise SpecSyntaxError(
                f"unknown activation {tag!r} in {text!r}; "
                f"known: {known}") from None
    if len(acts) != len(sizes) - 1:
        raise ArityError(
            f"{len(sizes)} layers need {len(sizes) - 1} activations, "
            f"got {len(acts)} in {text!r}")
    return Topology(sizes, tuple(acts))


def _as_topology(topology: "Topology | str") -> Topology:
    """A Topology, or a spec string parsed into one."""
    if isinstance(topology, str):
        return parse_spec(topology)
    return topology


def count_weights(topo: "Topology | tuple[int, ...] | str") -> int:
    """Total weight count including biases: sum of n_{l+1} * (n_l + 1)."""
    if isinstance(topo, str):
        sizes = parse_sizes(topo.partition("/")[0])
    elif isinstance(topo, Topology):
        sizes = topo.layer_sizes
    else:
        sizes = tuple(topo)
    return _offsets(sizes)[-1]


@dataclass(frozen=True)
class Network:
    """Immutable weights bound to a topology."""

    topology: Topology
    weights: tuple[Matrix, ...]

    def __post_init__(self):
        expected = self.topology.weight_shapes()
        got = tuple(w.shape for w in self.weights)
        if got != expected:
            raise ShapeError(
                f"weight shapes {got} do not match topology "
                f"{self.topology.render()} (expected {expected})")

    @classmethod
    def from_flat(cls, topology: Topology, flat) -> "Network":
        """The network whose flat_weights are flat.  The last layer is
        packed first: a non-finite entry is reported as backprop meets it."""
        offs = _offsets(topology.layer_sizes)
        shapes = topology.weight_shapes()
        mats = [Matrix(rows, cols, tuple(flat[offs[l]:offs[l + 1]]))
                for l, (rows, cols) in reversed(list(enumerate(shapes)))]
        return cls(topology, tuple(reversed(mats)))

    @functools.cached_property
    def flat_weights(self) -> tuple[float, ...]:
        """Every weight in the kernels' layout: the layer matrices, first
        layer first, each row-major with the bias ending its row."""
        return tuple(v for w in self.weights for v in w.entries)

    def output(self, inputs) -> float:
        return forward(self, inputs).output

    def predictor(self):
        """(x1, ..., xn) -> scalar output, for SSE and classification."""
        return lambda *xs: forward(self, xs).output


@dataclass(frozen=True)
class ForwardTrace:
    """Inputs plus per-layer pre- and post-activation vectors."""

    inputs: tuple[float, ...]
    pre: tuple[tuple[float, ...], ...]
    post: tuple[tuple[float, ...], ...]

    @property
    def outputs(self) -> tuple[float, ...]:
        return self.post[-1]

    @property
    def output(self) -> float:
        if len(self.post[-1]) != 1:
            raise ShapeError(
                f"scalar output requested from a {len(self.post[-1])}-wide "
                f"final layer")
        return self.post[-1][0]


def _inputs(topo: Topology, inputs) -> tuple[float, ...]:
    xs = tuple(float(v) for v in inputs)
    if len(xs) != topo.n_inputs:
        raise ShapeError(f"expected {topo.n_inputs} inputs, got {len(xs)}")
    return xs


def _samples(topo: Topology, data, task: str) -> tuple[list, list]:
    """The flat inputs and the targets of a single-target dataset, for a
    network of topo that the task (training or projection) runs over.
    ShapeError when the input counts differ or the network has more than
    one output."""
    pairs = data.single()
    if data.n_inputs != topo.n_inputs:
        raise ShapeError(
            f"dataset {data.name!r} has {data.n_inputs} inputs but "
            f"{topo.render()} expects {topo.n_inputs}")
    if topo.n_outputs != 1:
        raise ShapeError(
            f"{task} needs a single-output network, got {topo.render()}")
    return [v for ins, _ in pairs for v in ins], [t for _, t in pairs]


def forward(net: Network, inputs) -> ForwardTrace:
    """Evaluate the network, keeping intermediates for gradient reuse."""
    topo = net.topology
    xs = _inputs(topo, inputs)
    return ForwardTrace(xs, *_net_pass("forward", topo.layer_sizes,
                                       topo.codes)(net.flat_weights, xs))


def forward_lattice(net: Network, axis) -> list[float]:
    """The output of a 2-in 1-out network at every (x, y) of axis x axis,
    row-major: entry i * len(axis) + j is forward(net, (axis[i],
    axis[j])).output bit for bit, from one generated pass."""
    topo = net.topology
    if topo.n_inputs != 2 or topo.n_outputs != 1:
        raise ShapeError(f"a lattice pass needs a 2-in 1-out network, got "
                         f"{topo.render()}")
    return _net_pass("forward_lattice", topo.layer_sizes, topo.codes)(
        net.flat_weights, [float(v) for v in axis])


def gradient(net: Network, inputs, target: float) -> tuple[Matrix, ...]:
    """Partials of the squared error (out - target)^2 for every weight.

    Reverse accumulation from the output delta 2 (out - target) f'(z);
    returns one matrix per layer, shaped like the corresponding weight
    matrix.
    """
    topo = net.topology
    if topo.n_outputs != 1:
        raise ShapeError("gradient requires a single-output network")
    xs = _inputs(topo, inputs)
    partials = _net_pass("gradient", topo.layer_sizes, topo.codes)(
        net.flat_weights, xs, float(target))
    return Network.from_flat(topo, partials).weights


def collapse_linear(net: Network) -> Network:
    """Fold an all-Id network into the equivalent single layer.

    Pairwise rule w = (A2.A1, A2.b1 + b2), applied left to right across
    the stack; the augmented-matrix form appends the row (0, ..., 0, 1) to
    the lower matrix and multiplies.
    """
    for a in net.topology.activations:
        if a is not ID:
            raise NotLinearError(
                f"collapse needs all-Id activations, found {a.tag} in "
                f"{net.topology.render()}")
    combined = net.weights[0]
    for w in net.weights[1:]:
        aug_rows = list(combined.to_rows())
        aug_rows.append([0.0] * (combined.cols - 1) + [1.0])
        combined = mat_mul(w, Matrix.from_rows(aug_rows))
    topo = Topology((net.topology.n_inputs, net.topology.n_outputs), (ID,))
    return Network(topo, (combined,))


# ---------------------------------------------------------------------------
# model documents

def save_model(net: Network, path: "str | Path",
               seed: "int | None" = None) -> None:
    """Write the JSON model document (spec, optional seed, weights)."""
    doc = {
        "spec": net.topology.render(),
        "weights": [
            {"rows": w.rows, "cols": w.cols, "data": list(w.entries)}
            for w in net.weights
        ],
    }
    if seed is not None:
        doc["seed"] = int(seed)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _number(v) -> float:
    """A weight from JSON; float() alone would take "0.5" and true."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"weight {v!r} is not a JSON number")
    return float(v)


def _dimension(v) -> int:
    """A matrix dimension from JSON; int() alone would truncate 1.9 and
    take "1" and true as 1."""
    if (isinstance(v, bool) or not isinstance(v, (int, float))
            or (isinstance(v, float) and not v.is_integer())):
        raise ValueError(f"dimension {v!r} is not an integer")
    return int(v)


def load_model(path: "str | Path") -> Network:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    # bad JSON, bytes that are not UTF-8, or nesting too deep to decode
    except (ValueError, RecursionError) as exc:
        raise ModelFormatError(f"{path}: not valid JSON: {exc}") from None
    if not (isinstance(doc, dict) and isinstance(doc.get("spec"), str)
            and isinstance(doc.get("weights"), list)):
        raise ModelFormatError(
            f"{path}: model document needs a 'spec' string and 'weights' list")
    topo = parse_spec(doc["spec"])
    mats = []
    for k, entry in enumerate(doc["weights"]):
        try:
            rows, cols = _dimension(entry["rows"]), _dimension(entry["cols"])
            data = [_number(v) for v in entry["data"]]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ModelFormatError(
                f"{path}: weights[{k}] malformed: {exc}") from None
        if len(data) != rows * cols:
            raise ModelFormatError(
                f"{path}: weights[{k}] says {rows}x{cols} but carries "
                f"{len(data)} values")
        mats.append(Matrix(rows, cols, tuple(data)))
    return Network(topo, tuple(mats))
