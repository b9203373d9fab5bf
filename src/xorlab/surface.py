"""Error-surface projections: full-dataset SSE as a function of two chosen
weights with every other weight frozen at a base network's values.

Grids are one flat a-major array('d'), the array kernels.project_grid
returns, handed as it is to kernels.grid_stats and kernels.grid_csv:
values[i * steps + j] is the SSE with coord_a set to axis_a[i] and
coord_b set to axis_b[j].  Axis values are computed once here, by
datasets.grid_axis (the one evenly spaced axis of the package), and
handed to the kernel, so both kernel backends see identical lattices.
A range must give finite axis values; the SSE cells may still be inf or
NaN for a wide one, and landscape_stats and emit_grid_csv handle those.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from array import array
from dataclasses import dataclass, field
from pathlib import Path

from . import kernels
from ._pycore import _offsets
from .datasets import Dataset, grid_axis
from .errors import DomainError, InvalidCoordError
from .network import Network, Topology, _as_topology, _samples

__all__ = [
    "WeightCoord", "SurfaceGrid", "LandscapeStats",
    "parse_coord", "enumerate_pairs", "flat_index", "replace_weights",
    "project", "landscape_stats", "emit_grid_csv",
]


@dataclass(frozen=True, order=True)
class WeightCoord:
    """0-based (layer, row, col) into the weight stack.

    Renders 1-based in the spreadsheet style w1_11; any index past 9 gets
    explicit underscores (w1_2_10) to stay unambiguous.
    """

    layer: int
    row: int
    col: int

    def __post_init__(self):
        if self.layer < 0 or self.row < 0 or self.col < 0:
            raise InvalidCoordError(f"negative weight coordinate {self!r}")

    def render(self) -> str:
        r, c = self.row + 1, self.col + 1
        if r <= 9 and c <= 9:
            return f"w{self.layer + 1}_{r}{c}"
        return f"w{self.layer + 1}_{r}_{c}"


_COORD_COMPACT = re.compile(r"w(\d+)_(\d)(\d)\Z")
_COORD_LONG = re.compile(r"w(\d+)_(\d+)_(\d+)\Z")


def parse_coord(text: str) -> WeightCoord:
    """Inverse of WeightCoord.render; accepts w1_11 and w1_1_1 forms."""
    t = text.strip()
    m = _COORD_COMPACT.match(t) or _COORD_LONG.match(t)
    if not m:
        raise InvalidCoordError(
            f"cannot parse weight coordinate {text!r}; expected w1_11 or "
            f"w1_1_1 style")
    layer, row, col = (int(g) for g in m.groups())
    if layer < 1 or row < 1 or col < 1:
        raise InvalidCoordError(f"coordinate indices are 1-based: {text!r}")
    return WeightCoord(layer - 1, row - 1, col - 1)


def _check_coord(coord: WeightCoord, topo: Topology) -> None:
    shapes = topo.weight_shapes()
    if coord.layer >= len(shapes):
        raise InvalidCoordError(
            f"{coord.render()}: no layer {coord.layer + 1} in "
            f"{topo.render()}")
    rows, cols = shapes[coord.layer]
    if coord.row >= rows or coord.col >= cols:
        raise InvalidCoordError(
            f"{coord.render()}: layer {coord.layer + 1} of {topo.render()} "
            f"is {rows}x{cols}")


def flat_index(coord: WeightCoord, topo: Topology) -> int:
    """Index into the concatenated row-major weight vector."""
    _check_coord(coord, topo)
    sizes = topo.layer_sizes
    return (_offsets(sizes)[coord.layer]
            + coord.row * (sizes[coord.layer] + 1) + coord.col)


def enumerate_pairs(topology) -> "list[tuple[WeightCoord, WeightCoord]]":
    """All unordered weight pairs, lexicographic by (layer, row, col)."""
    topo = _as_topology(topology)
    coords = [WeightCoord(l, i, j)
              for l, (rows, cols) in enumerate(topo.weight_shapes())
              for i in range(rows)
              for j in range(cols)]
    return list(itertools.combinations(coords, 2))


def replace_weights(net: Network, updates) -> Network:
    """New network with (coord, value) updates applied."""
    flat = list(net.flat_weights)
    for coord, value in updates:
        flat[flat_index(coord, net.topology)] = float(value)
    return Network.from_flat(net.topology, flat)


@dataclass(frozen=True)
class SurfaceGrid:
    coord_a: WeightCoord
    coord_b: WeightCoord
    range_a: tuple
    range_b: tuple
    steps: int
    axis_a: tuple
    axis_b: tuple
    # kernels.project_grid's array('d'): values[i * steps + j], coord_a
    # major; left out of the hash, as an array has none
    values: array = field(hash=False)
    base_net: Network
    dataset_name: str


def project(net: Network, data: Dataset, a: WeightCoord, b: WeightCoord,
            range_a: tuple = (-5.0, 5.0), range_b: tuple = (-5.0, 5.0),
            steps: int = 101) -> SurfaceGrid:
    """SSE grid over the (a, b) weight plane at the net's base point."""
    if a == b:
        raise DomainError(f"projection needs two distinct weights, got "
                          f"{a.render()} twice")
    topo = net.topology
    xs, ts = _samples(topo, data, "projection")
    ia = flat_index(a, topo)
    ib = flat_index(b, topo)
    lo_a, hi_a = (float(range_a[0]), float(range_a[1]))
    lo_b, hi_b = (float(range_b[0]), float(range_b[1]))
    if not (lo_a < hi_a and lo_b < hi_b):
        raise DomainError("ranges must satisfy lo < hi")
    axis_a = grid_axis(lo_a, hi_a, steps)
    axis_b = grid_axis(lo_b, hi_b, steps)
    # an infinite bound, a width hi - lo that overflows, or a step
    # i * (hi - lo) that does, gives inf or NaN axis values
    if not all(map(math.isfinite, axis_a + axis_b)):
        raise DomainError(
            f"ranges {[lo_a, hi_a]} and {[lo_b, hi_b]} give non-finite axis "
            f"values at {steps} steps; the bounds, hi - lo and "
            f"(steps - 1) * (hi - lo) must be finite")
    flat = kernels.project_grid(list(topo.layer_sizes), topo.codes,
                                net.flat_weights, xs, ts, ia, ib,
                                list(axis_a), list(axis_b))
    return SurfaceGrid(a, b, (lo_a, hi_a), (lo_b, hi_b), steps,
                       axis_a, axis_b, flat, net, data.name)


@dataclass(frozen=True)
class LandscapeStats:
    min_value: float
    min_index: tuple
    min_point: tuple
    max_value: float
    strict_minima: int
    plateau_fraction: float


def landscape_stats(grid: SurfaceGrid) -> LandscapeStats:
    """Brute-force 4-neighborhood scan, by kernels.grid_stats.

    A strict local minimum beats every existing neighbor with raw <; ties
    count toward the plateau fraction instead (cells equal to at least one
    neighbor within 1e-12).  The minimum is the first cell in row-major
    order that no earlier cell beats with <, and NaN cells never count
    for the minimum or the maximum.
    """
    n = grid.steps
    if n < 3:
        raise DomainError(f"landscape_stats needs steps >= 3, got {n}")
    low, at, high, strict, plateau = kernels.grid_stats(grid.values, n)
    i, j = divmod(at, n)
    return LandscapeStats(low, (i, j), (grid.axis_a[i], grid.axis_b[j]),
                          high, strict, plateau / (n * n))


def emit_grid_csv(grid: SurfaceGrid, path: "str | Path",
                  model_ref: "str | None" = None) -> None:
    """CSV (wa,wb,err; wa-major; 17 significant digits) plus a companion
    metadata document at <path>.meta.json.

    The text is what kernels.grid_csv writes to the file: every number
    as '%.17g' writes it, NaN as "nan" whatever its sign.  The compiled
    kernel formats each axis value once and each cell once, by an exact
    integer path for most doubles and snprintf for the rest, and hands
    the file one reused 64 kB chunk at a time; the Python one writes
    each row from a row template.  Neither holds the whole text.
    """
    path = Path(path)
    with open(path, "wb") as fh:
        kernels.grid_csv(fh.write, b"wa,wb,err\n", grid.axis_a, grid.axis_b,
                         grid.values)
    meta = {
        "coord_a": grid.coord_a.render(),
        "coord_b": grid.coord_b.render(),
        "range_a": list(grid.range_a),
        "range_b": list(grid.range_b),
        "steps": grid.steps,
        "dataset": grid.dataset_name,
        "model": model_ref if model_ref is not None else "inline",
    }
    with open(str(path) + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
