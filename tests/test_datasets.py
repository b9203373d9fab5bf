"""Built-in tables, named baselines, grid/synthesis helpers, CSV I/O."""

import pytest

from xorlab.copula import CopulaParam, xor_f
from xorlab.datasets import (MAX_STEPS, Dataset, baseline, baseline_names,
                             builtin, builtin_names, emit_csv, grid_axis,
                             grid_points, load_csv, sse_of, synth_copula)
from xorlab.errors import (CsvFormatError, DomainError, ShapeError,
                           UnknownNameError)

CORNERS = ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0))


def test_builtin_registry():
    names = builtin_names()
    for required in ("boolean_xor", "boolean_and", "boolean_or",
                     "fig2_1", "fig2_4", "outsample_fig7_2"):
        assert required in names
    with pytest.raises(UnknownNameError):
        builtin("nope")


def test_boolean_xor_rows():
    d = builtin("boolean_xor")
    assert d.inputs == ("x1", "x2")
    assert d.targets == ("target",)
    assert d.rows == (((0.0, 0.0), (0.0,)), ((0.0, 1.0), (1.0,)),
                      ((1.0, 0.0), (1.0,)), ((1.0, 1.0), (0.0,)))


def test_truth_tables_agree_with_operators():
    d_and = builtin("boolean_and")
    d_or = builtin("boolean_or")
    for (x1, x2), (t,) in d_and.rows:
        assert t == float(int(x1) & int(x2))
    for (x1, x2), (t,) in d_or.rows:
        assert t == float(int(x1) | int(x2))


def test_dataset_validation():
    with pytest.raises(ShapeError):
        Dataset("d", ("x",), ("t",), ())
    with pytest.raises(ShapeError):
        Dataset("d", ("x",), ("t",), (((1.0, 2.0), (0.0,)),))
    with pytest.raises(DomainError):
        Dataset("d", ("x",), ("t",), (((2.0,), (0.0,)),))


def test_select_target_and_single():
    d = builtin("fig2_1")
    with pytest.raises(ShapeError):
        d.single()         # three target columns
    only_xor = d.select_target("xor")
    assert only_xor.targets == ("xor",)
    assert len(only_xor.single()) == len(d)
    with pytest.raises(UnknownNameError):
        d.select_target("nand")


def test_baseline_registry_and_goodness_of_fit():
    for required in ("Fa", "Fb", "Fc", "Fd", "Fe"):
        assert required in baseline_names()
    want = {"Fa": 2.0, "Fb": 2.0, "Fc": 1.0, "Fd": 10.0, "Fe": 0.0}
    d = builtin("boolean_xor")
    for name, sse in want.items():
        assert sse_of(name, d) == sse
    with pytest.raises(UnknownNameError):
        baseline("Fq", 0.0, 0.0)


def test_sse_of_needs_two_inputs_and_one_target():
    three = Dataset("three", ("a", "b", "c"), ("target",),
                    (((0.0, 0.5, 1.0), (0.5,)),))
    with pytest.raises(ShapeError, match="exactly 2 inputs"):
        sse_of("Fa", three)
    with pytest.raises(ShapeError, match="select_target"):
        sse_of("Fa", builtin("fig2_1"))


def test_fe_is_exact_on_all_corners():
    for (x1, x2) in CORNERS:
        assert baseline("Fe", x1, x2) == float(int(x1) ^ int(x2))


def test_discriminant_baselines_reproduce_truth_columns():
    """Thresholded regression outputs equal the and/or truth tables."""
    d_and = builtin("boolean_and")
    d_or = builtin("boolean_or")
    for (x1, x2), (t,) in d_and.rows:
        assert baseline("outAnd", x1, x2) == t
    for (x1, x2), (t,) in d_or.rows:
        assert baseline("outOr", x1, x2) == t
    # the raw regression planes underneath
    assert baseline("Rand", 1.0, 1.0) == pytest.approx(0.75, abs=1e-12)
    assert baseline("Ror", 0.0, 0.0) == pytest.approx(0.25, abs=1e-12)


def test_grid_points():
    pts = grid_points(3)
    assert len(pts) == 9
    assert pts[0] == (0.0, 0.0)
    assert pts[-1] == (1.0, 1.0)
    assert pts[1] == (0.0, 0.5)   # row-major in x1
    with pytest.raises(DomainError):
        grid_points(1)


def test_unit_grid_axis_is_i_over_steps_minus_one():
    """The trainer's lattice, grid_points and the CLI's copula grid were
    built as i / (steps - 1); the shared axis gives the same bits."""
    for steps in range(2, 1002):
        want = [(i / (steps - 1)).hex() for i in range(steps)]
        assert [x.hex() for x in grid_axis(0.0, 1.0, steps)] == want


@pytest.mark.parametrize("steps", [1, 0, -3])
def test_grid_axis_needs_two_steps(steps):
    with pytest.raises(DomainError, match=f"at least 2, got {steps}$"):
        grid_axis(0.0, 1.0, steps)


@pytest.mark.parametrize("steps", [MAX_STEPS + 1, 10 ** 20])
def test_grid_axis_has_at_most_max_steps(steps):
    assert MAX_STEPS == 1001
    with pytest.raises(DomainError, match=f"at most 1001, got {steps}$"):
        grid_axis(0.0, 1.0, steps)


def test_synth_copula_matches_direct_evaluation():
    p = CopulaParam.finite(2.0)
    pts = grid_points(5)
    d = synth_copula(p, pts)
    assert len(d) == len(pts)
    for (x1, x2), (t,) in d.rows:
        assert t == pytest.approx(float(xor_f(p, x1, x2)), abs=1e-15)


def test_outsample_table_columns():
    d = builtin("outsample_fig7_2")
    assert d.targets == ("s0", "s1", "sinf")
    assert len(d) == 5


def test_csv_round_trip(tmp_path):
    d = builtin("fig2_4")
    path = tmp_path / "fig2_4.csv"
    emit_csv(d, path)
    back = load_csv(path, name="fig2_4")
    assert back.inputs == d.inputs
    assert back.targets == d.targets
    assert back.rows == d.rows    # 17 significant digits survive re-parse


def test_csv_round_trip_analog_values(tmp_path):
    d = builtin("analog")
    path = tmp_path / "analog.csv"
    emit_csv(d, path)
    assert load_csv(path).rows == d.rows


def test_emit_csv_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(builtin("copula_s1"), a)
    emit_csv(builtin("copula_s1"), b)
    assert a.read_bytes() == b.read_bytes()


def test_load_csv_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x1,x2,target\n0,0\n")
    with pytest.raises(CsvFormatError):
        load_csv(bad)
    worse = tmp_path / "worse.csv"
    worse.write_text("x1,x2,target\n0,zero,0\n")
    with pytest.raises(CsvFormatError):
        load_csv(worse)
    for text, error, message in (
            ("x1,x2,target\n", CsvFormatError, "no data rows"),
            ("x1,x2,target\n0,1.5,1\n", DomainError,
             r"value 1.5 outside \[0, 1\]"),
            ("x1,target,x2\n0,1,0\n", CsvFormatError,
             "line 1: input column 'x2' after a target column")):
        worse.write_text(text)
        with pytest.raises(error, match=message):
            load_csv(worse)
