"""Weight coordinates, projection grids, landscape statistics, CSV export."""

import csv
import dataclasses
import io
import json
import math
from array import array

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import loop_kernels
import surface_reference

from xorlab import kernels
from xorlab.datasets import builtin, grid_axis
from xorlab.errors import DomainError, InvalidCoordError, ShapeError
from xorlab.linalg import Matrix
from xorlab.network import Network, parse_spec
from xorlab.surface import (LandscapeStats, SurfaceGrid, WeightCoord,
                            emit_grid_csv, enumerate_pairs, flat_index,
                            landscape_stats, parse_coord, project,
                            replace_weights)
from xorlab.trainer import sse

XOR = builtin("boolean_xor")

_W1 = [[0.1, -0.1, 0.2], [-0.2, 0.3, 0.1]]
_W2 = [[-0.4, -0.2, 0.3]]


def _base_net(spec="2-2-1/inp-id-id"):
    topo = parse_spec(spec)
    return Network(topo, (Matrix.from_rows(_W1), Matrix.from_rows(_W2)))


def test_parse_coord_round_trip():
    c = parse_coord("w1_12")
    assert c == WeightCoord(0, 0, 1)     # 0-based layer, row, col
    assert c.render() == "w1_12"
    assert parse_coord("w2_13") == WeightCoord(1, 0, 2)
    # an index past 9 takes explicit underscores
    assert WeightCoord(0, 1, 9).render() == "w1_2_10"
    assert parse_coord("w1_2_10") == WeightCoord(0, 1, 9)


def test_parse_coord_rejections():
    for bad in ("w0_11", "w1_01", "x1_11", "w1_1", "w_11", "w1_111"):
        with pytest.raises((DomainError, InvalidCoordError)):
            parse_coord(bad)


def test_flat_index_layout():
    topo = parse_spec("2-2-1/inp-id-id")
    # layer-major, row-major, bias last
    assert flat_index(WeightCoord(0, 0, 0), topo) == 0
    assert flat_index(WeightCoord(0, 0, 2), topo) == 2
    assert flat_index(WeightCoord(0, 1, 0), topo) == 3
    assert flat_index(WeightCoord(1, 0, 0), topo) == 6
    with pytest.raises(InvalidCoordError):
        flat_index(WeightCoord(0, 2, 0), topo)
    with pytest.raises(InvalidCoordError):
        flat_index(WeightCoord(2, 0, 0), topo)


def test_enumerate_pairs_counts():
    topo = parse_spec("2-2-1/inp-id-id")
    pairs = enumerate_pairs(topo)
    assert len(pairs) == 36              # C(9, 2)
    assert len(set(pairs)) == 36
    for a, b in pairs:
        assert flat_index(a, topo) < flat_index(b, topo)
    assert len(enumerate_pairs("2-2-2-1/inp-id-id-id")) == 105


def test_replace_weights():
    net = _base_net()
    out = replace_weights(net, [(parse_coord("w1_11"), 9.0),
                                (parse_coord("w2_13"), -9.0)])
    assert out.weights[0].at(0, 0) == 9.0
    assert out.weights[1].at(0, 2) == -9.0
    assert out.weights[0].at(0, 1) == net.weights[0].at(0, 1)
    # the original is untouched
    assert net.weights[0].at(0, 0) == 0.1


def test_project_matches_direct_sse():
    net = _base_net("2-2-1/inp-tanh-tanh")
    a, b = parse_coord("w1_11"), parse_coord("w2_12")
    grid = project(net, XOR, a, b, range_a=(-2, 2), range_b=(-2, 2),
                   steps=9)
    assert isinstance(grid, SurfaceGrid)
    assert grid.steps == 9
    assert grid.axis_a[0] == -2.0 and grid.axis_a[-1] == 2.0
    for i in (0, 4, 8):
        for j in (0, 3, 7):
            moved = replace_weights(net, [(a, grid.axis_a[i]),
                                          (b, grid.axis_b[j])])
            direct = sse(moved.predictor(), XOR)
            assert grid.values[i * 9 + j] == pytest.approx(direct,
                                                           abs=1e-12)


def test_project_base_point_cell_recovers_base_sse():
    """The cell at the base coordinates equals the unprojected SSE."""
    net = _base_net()
    a, b = parse_coord("w1_11"), parse_coord("w1_12")
    # range lower bounds sit exactly on the base values 0.1 and -0.1
    grid = project(net, XOR, a, b, range_a=(0.1, 1.1), range_b=(-0.1, 0.9),
                   steps=11)
    assert grid.values[0] == pytest.approx(sse(net.predictor(), XOR),
                                           abs=1e-12)


def test_project_validation():
    net = _base_net()
    a = parse_coord("w1_11")
    with pytest.raises(DomainError):
        project(net, XOR, a, a)
    with pytest.raises(DomainError):
        project(net, XOR, a, parse_coord("w1_12"), steps=1)
    with pytest.raises(DomainError):
        project(net, XOR, a, parse_coord("w1_12"), range_a=(2, -2))
    with pytest.raises(ShapeError):
        project(net, builtin("fig2_1"), a, parse_coord("w1_12"))


@pytest.mark.parametrize("lo, hi", [
    (-1e308, 1e308),        # hi - lo overflows
    (-math.inf, 5.0),
    (-5.0, math.inf),
    (0.0, 1.5e308),         # hi - lo is finite, 2 * (hi - lo) is not
])
def test_project_rejects_ranges_without_a_finite_axis(lo, hi):
    net = _base_net()
    a, b = parse_coord("w1_11"), parse_coord("w1_12")
    with pytest.raises(DomainError, match="non-finite axis"):
        project(net, XOR, a, b, range_a=(lo, hi), steps=5)
    with pytest.raises(DomainError, match="non-finite axis"):
        project(net, XOR, a, b, range_b=(lo, hi), steps=5)


@settings(max_examples=60, deadline=None)
@given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.integers(2, 9))
def test_project_axes_are_the_shared_axis(lo, hi, steps):
    """project's axes are grid_axis, and grid_axis is the expression
    surface used before it was shared, bit for bit."""
    assume(lo < hi)
    grid = project(_base_net(), XOR, parse_coord("w1_11"),
                   parse_coord("w2_11"), range_a=(lo, hi),
                   range_b=(lo - 1.0, hi), steps=steps)
    old = [lo + i * (hi - lo) / (steps - 1) for i in range(steps)]
    assert [x.hex() for x in grid.axis_a] == [x.hex() for x in old]
    assert grid.axis_a == grid_axis(lo, hi, steps)
    assert grid.axis_b == grid_axis(lo - 1.0, hi, steps)


def test_project_keeps_wide_finite_ranges():
    net = _base_net()
    grid = project(net, XOR, parse_coord("w1_11"), parse_coord("w2_11"),
                   range_a=(-1e200, 1e200), range_b=(-1e200, 1e200),
                   steps=5)
    assert grid.axis_a == (-1e200, -5e199, 0.0, 5e199, 1e200)
    assert math.inf in grid.values


def _tiny_grid(rows):
    n = len(rows)
    axis = tuple(float(k) for k in range(n))
    return SurfaceGrid(parse_coord("w1_11"), parse_coord("w1_12"),
                       (0.0, float(n - 1)), (0.0, float(n - 1)), n,
                       axis, axis, tuple(float(v) for r in rows for v in r),
                       _base_net(), "toy")


def test_landscape_stats_hand_grid():
    grid = _tiny_grid([[5, 4, 5],
                       [4, 1, 4],
                       [5, 4, 9]])
    stats = landscape_stats(grid)
    assert stats.min_value == 1.0
    assert stats.min_index == (1, 1)
    assert stats.min_point == (1.0, 1.0)
    assert stats.max_value == 9.0
    assert stats.strict_minima == 1
    assert stats.plateau_fraction == 0.0


def test_landscape_stats_counts_only_strict_minima():
    # the flat bottom at value 1 is not strict anywhere
    grid = _tiny_grid([[5, 4, 5],
                       [4, 1, 1],
                       [5, 1, 1]])
    stats = landscape_stats(grid)
    assert stats.strict_minima == 0
    assert stats.min_value == 1.0


def test_landscape_plateau_fraction():
    grid = _tiny_grid([[2, 2, 2],
                       [2, 2, 2],
                       [2, 2, 5]])
    # 8 of 9 cells sit in the flat region at the minimum
    assert landscape_stats(grid).plateau_fraction == pytest.approx(8 / 9)


def test_id_projection_has_unique_strict_minimum():
    net = _base_net()
    grid = project(net, XOR, parse_coord("w2_11"), parse_coord("w2_12"),
                   steps=101)
    stats = landscape_stats(grid)
    assert stats.strict_minima == 1
    # quadratic slice: every row and column is convex
    n, cells = grid.steps, grid.values
    for line in ([cells[i * n:(i + 1) * n] for i in range(n)]
                 + [cells[j::n] for j in range(n)]):
        for u, v, w in zip(line, line[1:], line[2:]):
            assert u - 2 * v + w >= -1e-9


def test_id_projection_input_pair_bitwise_tie():
    """Symmetry makes the input-layer slice minimum an exact two-way tie,
    so no lattice point is a strict minimum there."""
    net = _base_net()
    grid = project(net, XOR, parse_coord("w1_11"), parse_coord("w1_12"),
                   steps=101)
    stats = landscape_stats(grid)
    assert stats.strict_minima == 0
    assert grid.values.count(stats.min_value) == 2


def test_relu_projection_has_plateau():
    net = _base_net("2-2-1/inp-relu-relu")
    grid = project(net, XOR, parse_coord("w1_11"), parse_coord("w1_12"),
                   steps=41)
    assert landscape_stats(grid).plateau_fraction > 0.0


def test_emit_grid_csv_and_meta(tmp_path):
    net = _base_net()
    grid = project(net, XOR, parse_coord("w1_11"), parse_coord("w2_12"),
                   range_a=(-1, 1), range_b=(-1, 1), steps=5)
    path = tmp_path / "grid.csv"
    emit_grid_csv(grid, path, model_ref="base.json")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["wa", "wb", "err"]
    assert len(rows) == 1 + 25
    # wa-major ordering and 17g re-parse fidelity
    assert float(rows[1][0]) == -1.0 and float(rows[1][1]) == -1.0
    assert float(rows[2][1]) == -0.5
    assert float(rows[1][2]) == grid.values[0]
    meta = json.loads((tmp_path / "grid.csv.meta.json").read_text())
    assert meta == {"coord_a": "w1_11", "coord_b": "w2_12",
                    "range_a": [-1.0, 1.0], "range_b": [-1.0, 1.0],
                    "steps": 5, "dataset": "boolean_xor",
                    "model": "base.json"}


def test_emit_grid_csv_deterministic(tmp_path):
    net = _base_net()
    grid = project(net, XOR, parse_coord("w1_11"), parse_coord("w1_21"),
                   steps=7)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_grid_csv(grid, a)
    emit_grid_csv(grid, b)
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.meta.json").read_bytes() \
        == (tmp_path / "b.csv.meta.json").read_bytes()


# -- hostile grids against the scan and writer kept in tests/ ----------------

# values that stress the scan: NaN, both infinities, both zeros, exact
# ties and neighbours within the 1e-12 plateau tolerance
_HOSTILE = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, 1.0,
                     1.0 + 1e-12, 1.0 - 5e-13, 2.0, 5e-324,
                     1.7976931348623157e308]),
    st.floats(allow_nan=True, allow_infinity=True))


_HOSTILE_NET = _base_net()


@st.composite
def _hostile_grids(draw):
    n = draw(st.integers(3, 12))
    cells = draw(st.lists(_HOSTILE, min_size=n * n, max_size=n * n))
    axis_a = tuple(draw(st.lists(_HOSTILE, min_size=n, max_size=n)))
    axis_b = tuple(draw(st.lists(_HOSTILE, min_size=n, max_size=n)))
    return SurfaceGrid(parse_coord("w1_11"), parse_coord("w1_12"),
                       (-1.0, 1.0), (-1.0, 1.0), n, axis_a, axis_b,
                       tuple(cells), _HOSTILE_NET, "toy")


@pytest.fixture
def surface_kern(kern, monkeypatch):
    """surface's statistics and CSV text from kern's grid_stats and
    grid_csv, each backend in turn."""
    monkeypatch.setattr(kernels, "grid_stats", kern.grid_stats)
    monkeypatch.setattr(kernels, "grid_csv", kern.grid_csv)
    return kern


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_hostile_grids())
def test_hostile_grids_match_reference(surface_kern, tmp_path, grid):
    assert (repr(landscape_stats(grid))
            == repr(surface_reference.landscape_stats(grid)))
    emit_grid_csv(grid, tmp_path / "new.csv", model_ref="m.json")
    surface_reference.emit_grid_csv(grid, tmp_path / "ref.csv",
                                    model_ref="m.json")
    assert ((tmp_path / "new.csv").read_bytes()
            == (tmp_path / "ref.csv").read_bytes())
    assert ((tmp_path / "new.csv.meta.json").read_bytes()
            == (tmp_path / "ref.csv.meta.json").read_bytes())


@pytest.mark.parametrize("spec", ["2-2-1/inp-tanh-tanh",
                                  "2-2-1/inp-relu-relu"])
def test_projections_match_reference(spec, tmp_path):
    net = _base_net(spec)
    for a, b in enumerate_pairs(net.topology)[::5]:
        grid = project(net, XOR, a, b, steps=31)
        assert (repr(landscape_stats(grid))
                == repr(surface_reference.landscape_stats(grid)))
        emit_grid_csv(grid, tmp_path / "new.csv")
        surface_reference.emit_grid_csv(grid, tmp_path / "ref.csv")
        assert ((tmp_path / "new.csv").read_bytes()
                == (tmp_path / "ref.csv").read_bytes())


@pytest.mark.parametrize("pair", [("w1_11", "w1_12"), ("w1_21", "w2_12"),
                                  ("w2_11", "w2_13")])
def test_values_are_project_grids_flat_output(kern, monkeypatch, pair):
    """values is project_grid's a-major array('d') itself, cell for cell:
    values[i * steps + j] is the SSE at (axis_a[i], axis_b[j])."""
    monkeypatch.setattr(kernels, "project_grid", kern.project_grid)
    net = _base_net("2-2-1/inp-tanh-tanh")
    a, b = map(parse_coord, pair)
    grid = project(net, XOR, a, b, range_a=(-3, 2), range_b=(-1, 4),
                   steps=7)
    topo = net.topology
    want = loop_kernels.project_grid(
        topo.layer_sizes, topo.codes, net.flat_weights,
        [x for xs, _ in XOR.single() for x in xs],
        [t for _, t in XOR.single()], flat_index(a, topo),
        flat_index(b, topo), grid_axis(-3.0, 2.0, 7), grid_axis(-1.0, 4.0, 7))
    assert repr(list(grid.values)) == repr(want)
    assert type(grid.values) is array and grid.values.typecode == "d"
    hash(grid)      # values is left out of the hash


@settings(max_examples=50, deadline=None)
@given(st.lists(_HOSTILE, min_size=16, max_size=16))
def test_grid_kernels_read_an_array_a_list_and_a_tuple_alike(kern, cells):
    # surface hands them project_grid's array('d'); xorlab copula grid
    # and callers of the library may hand them a list or a tuple
    axis = (-1.0, 0.0, 0.5, 1.0)
    results = set()
    for values in (array("d", cells), cells, tuple(cells)):
        text = io.BytesIO()
        kern.grid_csv(text.write, b"wa,wb,err\n", axis, axis, values)
        results.add(repr((kern.grid_stats(values, 4), text.getvalue())))
    assert len(results) == 1


def test_landscape_stats_skips_nan_and_keeps_the_first_tie(surface_kern):
    nan, inf = math.nan, math.inf
    grid = _tiny_grid([[nan, 3, -0.0],
                       [0.0, nan, inf],
                       [-0.0, 7, nan]])
    stats = landscape_stats(grid)
    assert repr(stats) == repr(surface_reference.landscape_stats(grid))
    assert (repr(stats.min_value), stats.min_index) == ("-0.0", (0, 2))
    assert stats.max_value == inf
    as_list = dataclasses.replace(grid, values=list(grid.values))
    assert repr(landscape_stats(as_list)) == repr(stats)
    all_nan = _tiny_grid([[nan] * 3] * 3)
    stats = landscape_stats(all_nan)
    assert (stats.min_value, stats.min_index, stats.max_value) == (
        inf, (0, 0), -inf)
    assert (stats.strict_minima, stats.plateau_fraction) == (0, 0.0)
