"""End-to-end command-line tests driven through main(argv)."""

import argparse
import json
import math
import shlex
from pathlib import Path

import pytest

from xorlab.cli import build_parser, main
from xorlab.network import load_model


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    return doc


# -- copula ------------------------------------------------------------------

def test_copula_eval_pretty(capsys):
    code, out, err = run(capsys, "copula", "eval", "--s", "1",
                         "--x", "0.5", "--y", "0.5", "--fn", "and")
    assert code == 0
    assert out.strip() == "0.25"
    assert err == ""


def test_copula_eval_json_root_flag(capsys):
    doc = run_json(capsys, "--format", "json", "copula", "eval", "--s", "inf",
                   "--x", "0.4", "--y", "0.7", "--fn", "and")
    assert doc["s"] == "inf"
    assert doc["value"] == pytest.approx(0.1, abs=1e-15)


def test_copula_eval_json_sub_flag(capsys):
    doc = run_json(capsys, "copula", "eval", "--s", "2", "--x", "0.5",
                   "--y", "0.5", "--fn", "xor", "--format", "json")
    assert doc["fn"] == "xor"
    assert doc["value"] == pytest.approx(1.0 - 2 * 0.22844669683638802,
                                         abs=1e-12)


def test_copula_solve_s(capsys):
    doc = run_json(capsys, "copula", "solve-s", "--x", "0.5", "--y", "0.5",
                   "--p", "0.3", "--format", "json")
    assert doc["kind"] == "finite"
    assert float(doc["s"]) == pytest.approx(0.193, abs=1e-3)


def test_copula_grid_file(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code, _, _ = run(capsys, "copula", "grid", "--s", "0.5", "--steps", "5",
                     "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y,value"
    assert len(lines) == 1 + 25


def test_copula_grid_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert main(["copula", "grid", "--s", "2", "--steps", "9",
                     "--out", str(path)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_copula_eval_domain_error(capsys):
    code, out, err = run(capsys, "copula", "eval", "--s", "-3",
                         "--x", "0.5", "--y", "0.5", "--fn", "and")
    assert code == 1
    assert err.startswith("error: ")
    assert out == ""


@pytest.mark.parametrize("argv", [
    ("copula", "eval", "--fn", "and", "--s", "2", "--x", "nan",
     "--y", "0.5"),
    ("copula", "solve-s", "--x", "nan", "--y", "0.5", "--p", "0"),
    ("logic", "prob", "--expr", "a and b", "--assign", "a=nan,b=0.5",
     "--s", "2"),
])
def test_nan_probability_is_an_error(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ("classify", "--model", "{model}", "--grid", "1"),
    ("sweep", "--spec", "2-2-1/inp-tanh-tanh", "--data", "boolean_xor",
     "--seed", "0", "--restarts", "1", "--max-iters", "10", "--out", "{out}",
     "--classify-grid", "1"),
    ("copula", "grid", "--s", "2", "--steps", "0"),
    # sweep checks the grid before the first restart, so it fails even
    # when every restart diverges and none is classified
    ("sweep", "--spec", "2-2-1/inp-tanh-id", "--data", "boolean_xor",
     "--lr", "1e200", "--restarts", "2", "--max-iters", "50", "--seed", "0",
     "--out", "{out}", "--classify-grid", "1"),
])
def test_lattice_of_fewer_than_two_steps_is_an_error(argv, linear_model,
                                                     tmp_path, capsys):
    runs = tmp_path / "runs.csv"
    code, out, err = run(capsys, *(a.format(model=linear_model, out=runs)
                                   for a in argv))
    assert code == 1 and out == ""
    assert err == f"error: steps must be at least 2, got {argv[-1]}\n"
    assert not runs.exists()


# -- logic -------------------------------------------------------------------

def test_logic_prob(capsys):
    doc = run_json(capsys, "logic", "prob", "--expr", "x1 xor x2",
                   "--assign", "x1=0.5,x2=0.5", "--s", "1",
                   "--format", "json")
    assert doc["value"] == pytest.approx(0.5, abs=1e-12)
    assert doc["warnings"] == []


def test_logic_prob_warning_goes_to_stderr(capsys):
    code, out, err = run(capsys, "logic", "prob", "--expr", "a and not a",
                         "--assign", "a=0.5", "--s", "1")
    assert code == 0
    assert "warning:" in err
    assert out.strip() == "0.25"


def test_logic_table(capsys):
    doc = run_json(capsys, "logic", "table", "--expr", "x1 xor x2",
                   "--format", "json")
    assert doc["variables"] == ["x1", "x2"]
    assert doc["rows"] == [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]]


def test_logic_freq_check(capsys):
    doc = run_json(capsys, "logic", "freq", "--data", "fig2_1", "--check",
                   "--format", "json")
    assert doc["frequencies"]["and"] == 0.3
    assert doc["frequencies"]["xor"] == 0.4
    assert doc["consistent"] is True
    assert all(doc["checks"].values())


def test_logic_parse_error_exit_code(capsys):
    code, out, err = run(capsys, "logic", "table", "--expr", "a and")
    assert code == 1
    assert err.startswith("error: ")


# -- regress -----------------------------------------------------------------

def test_regress_xor(capsys):
    doc = run_json(capsys, "regress", "--data", "boolean_xor",
                   "--format", "json")
    w = doc["weights"]
    assert w[0] == pytest.approx(0.0, abs=1e-9)
    assert w[1] == pytest.approx(0.0, abs=1e-9)
    assert w[2] == pytest.approx(0.5, abs=1e-9)
    assert doc["sse"] == pytest.approx(1.0, abs=1e-9)


def test_regress_product_feature(capsys):
    doc = run_json(capsys, "regress", "--data", "boolean_xor",
                   "--product-feature", "--format", "json")
    assert doc["weights"] == pytest.approx([1.0, 1.0, -2.0, 0.0], abs=1e-9)
    assert doc["sse"] == pytest.approx(0.0, abs=1e-9)


def test_regress_multi_target_needs_selector(capsys):
    code, _, err = run(capsys, "regress", "--data", "fig2_1")
    assert code == 1 and err.startswith("error: ")
    doc = run_json(capsys, "regress", "--data", "fig2_1", "--target", "xor",
                   "--format", "json")
    assert doc["dataset"] == "fig2_1[xor]"


# -- net ---------------------------------------------------------------------

@pytest.fixture
def linear_model(tmp_path):
    """The worked 2-2-1 all-id example saved as a model file."""
    from xorlab.linalg import Matrix
    from xorlab.network import Network, parse_spec, save_model
    net = Network(parse_spec("2-2-1/inp-id-id"),
                  (Matrix.from_rows([[0.1, -0.1, 0.2], [-0.2, 0.3, 0.1]]),
                   Matrix.from_rows([[-0.4, -0.2, 0.3]])))
    path = tmp_path / "linear.json"
    save_model(net, path)
    return path


def test_net_count(capsys):
    code, out, _ = run(capsys, "net", "count", "--spec", "2-9-1")
    assert code == 0 and out.strip() == "37"
    doc = run_json(capsys, "net", "count", "--spec", "2-4-4-1",
                   "--format", "json")
    assert doc["count"] == 37


def test_net_forward(linear_model, capsys):
    doc = run_json(capsys, "net", "forward", "--model", str(linear_model),
                   "--input", "0,1", "--format", "json")
    assert doc["output"] == pytest.approx(0.18, abs=1e-15)
    assert doc["post"][0] == pytest.approx([0.1, 0.4], abs=1e-15)


def test_net_forward_missing_model_is_an_error(tmp_path, capsys):
    code, out, err = run(capsys, "net", "forward", "--model",
                         str(tmp_path / "nonexistent.json"), "--input", "0,1")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "nonexistent.json" in err
    assert "Traceback" not in err


def test_net_forward_rejects_fractional_dimensions(tmp_path, capsys):
    model = tmp_path / "frac.json"
    model.write_text(json.dumps(
        {"spec": "2-1/inp-id",
         "weights": [{"rows": 1.9, "cols": 3.2, "data": [0.5, 0.25, 1]}]}))
    code, out, err = run(capsys, "net", "forward", "--model", str(model),
                         "--input", "1,1")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "not an integer" in err


def test_net_forward_rejects_strings_and_booleans(tmp_path, capsys):
    model = tmp_path / "typed.json"
    model.write_text(json.dumps(
        {"spec": "2-1/inp-id",
         "weights": [{"rows": "1", "cols": 3, "data": ["0.5", True, "1e3"]}]}))
    code, out, err = run(capsys, "net", "forward", "--model", str(model),
                         "--input", "1,1")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "malformed" in err


def test_net_collapse(linear_model, tmp_path, capsys):
    out = tmp_path / "flat.json"
    code, _, _ = run(capsys, "net", "collapse", "--model", str(linear_model),
                     "--out", str(out))
    assert code == 0
    flat = load_model(out)
    assert flat.topology.layer_sizes == (2, 1)
    assert flat.output((0.0, 1.0)) == pytest.approx(0.18, abs=1e-15)


# -- train / classify / sweep -------------------------------------------------

def test_train_writes_model_and_log(tmp_path, capsys):
    model = tmp_path / "m.json"
    log = tmp_path / "sse.csv"
    doc = run_json(capsys, "train", "--spec", "2-2-1/inp-tanh-tanh",
                   "--data", "boolean_xor", "--seed", "4", "--lr", "0.5",
                   "--max-iters", "150", "--out", str(model),
                   "--log", str(log), "--format", "json")
    assert doc["seed"] == 4
    assert doc["iterations"] <= 150
    assert model.exists()
    lines = log.read_text().splitlines()
    assert lines[0] == "iteration,sse"
    assert len(lines) == 1 + doc["iterations"]
    net = load_model(model)
    assert net.topology.render() == "2-2-1/inp-tanh-tanh"


def test_train_divergence_is_a_domain_error(capsys):
    code, _, err = run(capsys, "train", "--spec", "2-2-1/inp-id-id",
                       "--data", "boolean_xor", "--seed", "0",
                       "--lr", "100", "--mode", "full-batch",
                       "--max-iters", "300")
    assert code == 1
    assert err.startswith("error: ")


@pytest.mark.parametrize("flag, value", [
    ("--tol", "nan"), ("--tol", "inf"), ("--lr", "nan"),
    ("--init-range", "nan")])
def test_train_rejects_non_finite_settings(flag, value, capsys):
    code, out, err = run(capsys, "train", "--spec", "2-2-1/inp-tanh-tanh",
                         "--data", "boolean_xor", "--seed", "0",
                         "--max-iters", "200", flag, value)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "finite" in err


@pytest.mark.parametrize("command", [
    ("train",), ("sweep", "--restarts", "1")])
def test_max_iters_beyond_a_c_int_is_a_domain_error(command, capsys):
    code, out, err = run(capsys, *command, "--spec", "2-2-1/inp-relu-relu",
                         "--data", "boolean_xor", "--seed", "2",
                         "--max-iters", "3000000000")
    assert code == 1 and out == ""
    assert err == ("error: max_iters must be at most 2147483647, "
                   "got 3000000000\n")


def test_classify_exact_model(tmp_path, capsys):
    from xorlab.linalg import Matrix
    from xorlab.network import Network, parse_spec, save_model
    net = Network(parse_spec("2-2-1/inp-relu-relu"),
                  (Matrix.from_rows([[1, -1, 0], [-1, 1, 0]]),
                   Matrix.from_rows([[1, 1, 0]])))
    path = tmp_path / "f0.json"
    save_model(net, path)
    doc = run_json(capsys, "classify", "--model", str(path),
                   "--format", "json")
    assert doc["kind"] == "F0"
    assert doc["max_deviation"] < 1e-9


def test_sweep_csv(tmp_path, capsys):
    out = tmp_path / "runs.csv"
    doc = run_json(capsys, "sweep", "--spec", "2-2-1/inp-tanh-tanh",
                   "--data", "boolean_xor", "--seed", "0", "--restarts", "3",
                   "--lr", "0.5", "--max-iters", "400", "--out", str(out),
                   "--format", "json")
    assert doc["restarts"] == 3
    lines = out.read_text().splitlines()
    assert lines[0].startswith("seed,converged,diverged,iterations")
    assert len(lines) == 1 + 3
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2"]


def test_sweep_nonfinite_divergence_is_recorded(tmp_path, capsys):
    # lr 1e200 drives the tanh-id net to a NaN state in one iteration
    out = tmp_path / "runs.csv"
    code, _, err = run(capsys, "sweep", "--spec", "2-2-1/inp-tanh-id",
                       "--data", "boolean_xor", "--lr", "1e200",
                       "--restarts", "2", "--max-iters", "50", "--seed", "0",
                       "--out", str(out))
    assert code == 0, err
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [r[0] for r in rows] == ["0", "1"]
    for r in rows:
        # converged, diverged, label, max_deviation, envelope_ok
        assert (r[1], r[2], r[5], r[6], r[7]) == \
            ("false", "true", "Unclassified", "inf", "")


@pytest.mark.parametrize("value", ["nan", "-1", "-0.5"])
def test_negative_or_nan_classification_tolerance_is_an_error(
        value, linear_model, tmp_path, capsys):
    out = tmp_path / "runs.csv"
    for argv in (("classify", "--model", str(linear_model), "--tol", value),
                 ("sweep", "--spec", "2-2-1/inp-tanh-tanh", "--data",
                  "boolean_xor", "--seed", "3", "--lr", "0.5", "--restarts",
                  "2", "--classify-tol", value, "--out", str(out))):
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (1, ""), argv
        assert err.startswith("error: classification tolerance must be "
                              "non-negative"), argv
    assert not out.exists()


# -- surface -------------------------------------------------------------------

def test_surface_grid_files(linear_model, tmp_path, capsys):
    out = tmp_path / "surf.csv"
    doc = run_json(capsys, "surface", "--model", str(linear_model),
                   "--data", "boolean_xor", "--pair", "w1_11,w1_12",
                   "--range=-2,2", "--steps", "11", "--out", str(out),
                   "--format", "json")
    assert doc["pair"] == ["w1_11", "w1_12"]
    assert out.exists()
    meta = json.loads((tmp_path / "surf.csv.meta.json").read_text())
    assert meta["steps"] == 11
    assert meta["model"] == str(linear_model)


def test_surface_all_pairs_argv_rewrite(linear_model, tmp_path, capsys):
    out_dir = tmp_path / "grids"
    doc = run_json(capsys, "surface", "all-pairs", "--model",
                   str(linear_model), "--data", "boolean_xor",
                   "--range=-1,1", "--steps", "3",
                   "--out-dir", str(out_dir), "--format", "json")
    assert doc["pairs"] == 36
    files = sorted(out_dir.glob("*.csv"))
    assert len(files) == 36
    assert (out_dir / "w1_11__w1_12.csv").exists()
    assert (out_dir / "w1_11__w1_12.csv.meta.json").exists()


def _surface(capsys, model, out, *extra):
    return run(capsys, "surface", "--model", str(model), "--data",
               "boolean_xor", "--pair", "w1_11,w2_11", "--out", str(out),
               "--format", "json", *extra)


def test_surface_steps_2_fails_before_writing(linear_model, tmp_path,
                                              capsys):
    code, _, err = _surface(capsys, linear_model, tmp_path / "surf.csv",
                            "--steps", "2")
    assert code == 1
    assert "steps >= 3" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["linear.json"]


def test_surface_missing_out_dir_is_an_error(linear_model, tmp_path,
                                             capsys):
    code, out, err = _surface(capsys, linear_model,
                              tmp_path / "nodir" / "x.csv", "--steps", "5")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "nodir" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["linear.json"]


@pytest.mark.parametrize("bounds", ["-1e308,1e308", "-inf,5", "0,1.5e308"])
def test_surface_overflowing_range_fails_before_writing(
        linear_model, tmp_path, capsys, bounds):
    code, _, err = _surface(capsys, linear_model, tmp_path / "surf.csv",
                            f"--range={bounds}", "--steps", "5")
    assert code == 1
    assert err.startswith("error: ") and "non-finite axis" in err
    code, _, _ = run(capsys, "surface", "all-pairs", "--model",
                     str(linear_model), "--data", "boolean_xor",
                     f"--range={bounds}", "--steps", "5", "--out-dir",
                     str(tmp_path / "grids"))
    assert code == 1
    assert not list(tmp_path.rglob("*.csv*"))
    assert not (tmp_path / "grids").exists()


def test_surface_inf_cells_match_reference(linear_model, tmp_path, capsys):
    import surface_reference
    from xorlab.datasets import builtin
    from xorlab.surface import parse_coord, project
    out = tmp_path / "surf.csv"
    code, stdout, err = _surface(capsys, linear_model, out,
                                 "--range=-1e200,1e200", "--steps", "21")
    assert code == 0, err
    grid = project(load_model(linear_model), builtin("boolean_xor"),
                   parse_coord("w1_11"), parse_coord("w2_11"),
                   (-1e200, 1e200), (-1e200, 1e200), 21)
    assert math.inf in [v for row in grid.values for v in row]
    surface_reference.emit_grid_csv(grid, tmp_path / "ref.csv",
                                    model_ref=str(linear_model))
    assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert ((tmp_path / "surf.csv.meta.json").read_bytes()
            == (tmp_path / "ref.csv.meta.json").read_bytes())
    stats = surface_reference.landscape_stats(grid)
    doc = json.loads(stdout)
    assert repr([doc["min_value"], doc["min_point"], doc["strict_minima"],
                 doc["plateau_fraction"]]) == repr(
        [stats.min_value, list(stats.min_point), stats.strict_minima,
         stats.plateau_fraction])


# -- dataset -------------------------------------------------------------------

def test_dataset_emit_and_list(tmp_path, capsys):
    out = tmp_path / "xor.csv"
    code, _, _ = run(capsys, "dataset", "emit", "--name", "boolean_xor",
                     "--out", str(out))
    assert code == 0
    assert out.read_text().splitlines()[0] == "x1,x2,target"
    doc = run_json(capsys, "dataset", "list", "--format", "json")
    names = [d["name"] for d in doc["datasets"]]
    assert "boolean_xor" in names and "outsample_fig7_2" in names


def test_unknown_dataset_leaves_no_partial_file(tmp_path, capsys):
    out = tmp_path / "never.csv"
    code, _, err = run(capsys, "dataset", "emit", "--name", "not_a_table",
                       "--out", str(out))
    assert code == 1
    assert err.startswith("error: ")
    assert not out.exists()


def test_usage_error_exit_code_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["copula", "eval", "--s", "1", "--x", "0.5", "--fn", "and"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["no-such-command"])


def _commands(parser: argparse.ArgumentParser):
    """The parsers below parser that run a command, depth first."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for p in action.choices.values():
                if p.get_default("func"):
                    yield p
                yield from _commands(p)


def test_every_command_takes_format_as_its_last_option():
    commands = list(_commands(build_parser()))
    assert len({p.prog for p in commands}) == 17
    for p in commands:
        last = p._actions[-1]
        assert last.option_strings == ["--format"], p.prog
        assert last.choices == ("pretty", "json")
        assert last.default is argparse.SUPPRESS


_EVAL = ("copula", "eval", "--s", "2", "--x", "0.3", "--y", "0.8",
         "--fn", "and")
_GRID = ("copula", "grid", "--s", "2", "--steps", "3")


@pytest.mark.parametrize("command, pretty_head, json_key", [
    (_EVAL, "0.228112340481", "value"), (_GRID, "x,y,value", "rows")],
    ids=["eval", "grid"])
@pytest.mark.parametrize("before, after, fmt", [
    ((), (), "pretty"),
    (("--format", "json"), (), "json"),
    ((), ("--format", "json"), "json"),
    (("--format", "json"), ("--format", "pretty"), "pretty")],
    ids=["none", "before", "after", "after-wins"])
def test_format_before_or_after_the_command(capsys, command, pretty_head,
                                            json_key, before, after, fmt):
    code, out, err = run(capsys, *before, *command, *after)
    assert code == 0 and err == ""
    if fmt == "json":
        doc = json.loads(out)
        assert doc["schema_version"] == "1" and json_key in doc
    else:
        assert out.splitlines()[0] == pretty_head


# -- README ------------------------------------------------------------------

def _tour_commands():
    """The xorlab commands of the README's CLI tour, continuation lines
    joined, as argument lists without the program name."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = readme.split("## CLI tour", 1)[1].split("\n## ", 1)[0]
    commands, pending = [], ""
    for line in tour.splitlines():
        text = pending + line.strip()
        if text.endswith("\\"):
            pending = text[:-1]
        elif text.startswith("xorlab "):
            pending = ""
            commands.append(shlex.split(text)[1:])
    return commands


def test_readme_tour_commands_parse(capsys):
    """Every tour command parses (nothing is executed)."""
    commands = _tour_commands()
    assert len(commands) >= 18
    failures = []
    for argv in commands:
        # the spelling main() accepts for surface-all-pairs
        if argv[:2] == ["surface", "all-pairs"]:
            argv = ["surface-all-pairs"] + argv[2:]
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            failures.append(" ".join(argv))
    capsys.readouterr()
    assert not failures, failures
