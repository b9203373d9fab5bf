"""Error-surface projections: full-dataset SSE as a function of two chosen
weights with every other weight frozen at a base network's values.

Grids are a-major: values[i][j] is the SSE with coord_a set to axis_a[i]
and coord_b set to axis_b[j].  Axis values are computed once here and
handed to the kernel, so both kernel backends see identical lattices.
A range must give finite axis values; the SSE cells may still be inf or
NaN for a wide one, and landscape_stats and emit_grid_csv handle those.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

from . import kernels
from ._pycore import _offsets
from .datasets import Dataset
from .errors import DomainError, InvalidCoordError
from .network import Network, Topology, _samples, parse_spec

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
    topo = parse_spec(topology) if isinstance(topology, str) else topology
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
    values: tuple            # values[i][j], coord_a major
    base_net: Network
    dataset_name: str


def _axis(lo: float, hi: float, steps: int) -> tuple:
    return tuple(lo + i * (hi - lo) / (steps - 1) for i in range(steps))


def project(net: Network, data: Dataset, a: WeightCoord, b: WeightCoord,
            range_a: tuple = (-5.0, 5.0), range_b: tuple = (-5.0, 5.0),
            steps: int = 101) -> SurfaceGrid:
    """SSE grid over the (a, b) weight plane at the net's base point."""
    if a == b:
        raise DomainError(f"projection needs two distinct weights, got "
                          f"{a.render()} twice")
    if steps < 2:
        raise DomainError(f"steps must be at least 2, got {steps}")
    topo = net.topology
    xs, ts = _samples(topo, data, "projection")
    ia = flat_index(a, topo)
    ib = flat_index(b, topo)
    lo_a, hi_a = (float(range_a[0]), float(range_a[1]))
    lo_b, hi_b = (float(range_b[0]), float(range_b[1]))
    if not (lo_a < hi_a and lo_b < hi_b):
        raise DomainError("ranges must satisfy lo < hi")
    axis_a = _axis(lo_a, hi_a, steps)
    axis_b = _axis(lo_b, hi_b, steps)
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
    values = tuple(tuple(flat[i * steps:(i + 1) * steps])
                   for i in range(steps))
    return SurfaceGrid(a, b, (lo_a, hi_a), (lo_b, hi_b), steps,
                       axis_a, axis_b, values, net, data.name)


@dataclass(frozen=True)
class LandscapeStats:
    min_value: float
    min_index: tuple
    min_point: tuple
    max_value: float
    strict_minima: int
    plateau_fraction: float


_PLATEAU_TOL = 1e-12


def landscape_stats(grid: SurfaceGrid) -> LandscapeStats:
    """Brute-force 4-neighborhood scan.

    A strict local minimum beats every existing neighbor with raw <; ties
    count toward the plateau fraction instead (cells equal to at least one
    neighbor within 1e-12).  The minimum is the first cell in row-major
    order that no earlier cell beats with <, and NaN cells never count
    for the minimum or the maximum.

    The scan runs row by row: each row is zipped with the rows above and
    below and with its copies shifted left and right, a missing neighbor
    being +inf for the strict test and NaN for the plateau test, neither
    of which can change a verdict.  min() and max() take a row only when
    it holds no NaN, since they would not skip one.
    """
    n = grid.steps
    if n < 3:
        raise DomainError(f"landscape_stats needs steps >= 3, got {n}")
    v = grid.values
    min_val = math.inf
    max_val = -math.inf
    min_idx = (0, 0)
    strict = 0
    plateau = 0
    tol = _PLATEAU_TOL
    inf, nan = math.inf, math.nan
    inf_row, nan_row = (inf,) * n, (nan,) * n
    for i in range(n):
        row = tuple(v[i])
        total = sum(row)
        if total == total:                  # no NaN in the row
            low = min(row)
            if low < min_val:
                min_val = low
                min_idx = (i, row.index(low))
            high = max(row)
            if high > max_val:
                max_val = high
        else:
            for j, x in enumerate(row):
                if x < min_val:
                    min_val = x
                    min_idx = (i, j)
                if x > max_val:
                    max_val = x
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
    point = (grid.axis_a[min_idx[0]], grid.axis_b[min_idx[1]])
    return LandscapeStats(min_val, min_idx, point, max_val, strict,
                          plateau / (n * n))


def emit_grid_csv(grid: SurfaceGrid, path: "str | Path",
                  model_ref: "str | None" = None) -> None:
    """CSV (wa,wb,err; wa-major; 17 significant digits) plus a companion
    metadata document at <path>.meta.json.

    The axis_b column is formatted once per grid into a row template, and
    each row is one write; '%.17g' % x is format(x, '.17g') for every
    float, inf and NaN included.
    """
    path = Path(path)
    n = grid.steps
    row_format = "".join(f"%s,{format(b, '.17g')},%.17g\n"
                         for b in grid.axis_b)
    cells = [None] * (2 * n)
    with open(path, "w", newline="") as fh:
        fh.write("wa,wb,err\n")
        for i in range(n):
            cells[0::2] = [format(grid.axis_a[i], ".17g")] * n
            cells[1::2] = grid.values[i]
            fh.write(row_format % tuple(cells))
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
