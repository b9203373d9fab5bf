"""Topology strings and weight coordinates, read by the benchmark itself.

Pure Python (no numpy), so workload set-up can use it before the oracles
are imported.
"""

from __future__ import annotations

import itertools
import re

_COORD = re.compile(r"w(\d)_(\d)(\d)\Z")


def parse_spec(spec: str):
    """'2-2-1/inp-tanh-tanh' -> ([2, 2, 1], ['tanh', 'tanh'])."""
    head, _, tail = spec.partition("/")
    return [int(n) for n in head.split("-")], tail.split("-")[1:]


def coord_names(sizes) -> "list[str]":
    """Every weight of the stack as w<layer>_<row><col>, 1-based; each row
    is (incoming weights..., bias)."""
    return [f"w{l + 1}_{r + 1}{c + 1}"
            for l, (n_in, n_out) in enumerate(zip(sizes, sizes[1:]))
            for r in range(n_out) for c in range(n_in + 1)]


def weight_pairs(sizes) -> "list[tuple[str, str]]":
    return list(itertools.combinations(coord_names(sizes), 2))


def flat_index(name: str, sizes) -> int:
    """Position of a coordinate in the concatenated row-major weights."""
    layer, row, col = (int(g) - 1 for g in _COORD.match(name).groups())
    base = sum(n_out * (n_in + 1)
               for n_in, n_out in zip(sizes[:layer], sizes[1:layer + 1]))
    return base + row * (sizes[layer] + 1) + col
