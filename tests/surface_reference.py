"""The surface scan and CSV writer as they were before the row-wise
scan and the row template, kept verbatim as the reference the
hostile-grid tests compare the library against."""

import json
import math
from pathlib import Path

from xorlab.errors import DomainError
from xorlab.surface import LandscapeStats, SurfaceGrid

_PLATEAU_TOL = 1e-12


def landscape_stats(grid: SurfaceGrid) -> LandscapeStats:
    """Brute-force 4-neighborhood scan.

    A strict local minimum beats every existing neighbor with raw <; ties
    count toward the plateau fraction instead (cells equal to at least one
    neighbor within 1e-12).
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
    for i in range(n):
        for j in range(n):
            x = v[i][j]
            if x < min_val:
                min_val = x
                min_idx = (i, j)
            if x > max_val:
                max_val = x
            neigh = []
            if i > 0:
                neigh.append(v[i - 1][j])
            if i < n - 1:
                neigh.append(v[i + 1][j])
            if j > 0:
                neigh.append(v[i][j - 1])
            if j < n - 1:
                neigh.append(v[i][j + 1])
            if all(x < y for y in neigh):
                strict += 1
            if any(abs(x - y) <= _PLATEAU_TOL for y in neigh):
                plateau += 1
    point = (grid.axis_a[min_idx[0]], grid.axis_b[min_idx[1]])
    return LandscapeStats(min_val, min_idx, point, max_val, strict,
                          plateau / (n * n))


def emit_grid_csv(grid: SurfaceGrid, path: "str | Path",
                  model_ref: "str | None" = None) -> None:
    """CSV (wa,wb,err; wa-major; 17 significant digits) plus a companion
    metadata document at <path>.meta.json."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        fh.write("wa,wb,err\n")
        for i in range(grid.steps):
            wa = format(grid.axis_a[i], ".17g")
            for j in range(grid.steps):
                fh.write(f"{wa},{format(grid.axis_b[j], '.17g')},"
                         f"{format(grid.values[i][j], '.17g')}\n")
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
