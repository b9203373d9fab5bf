"""Command-line front end.

Subcommands mirror the library modules; results go to stdout (or --out
files), errors to stderr.  Exit codes: 0 success, 1 domain/validation
failure, 2 usage error.  --format json wraps each result in a single
object carrying schema_version "1"; pretty output is for humans and
carries no compatibility promise.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings
from pathlib import Path

from . import kernels
from . import surface as surface_mod
from . import trainer as trainer_mod
from .copula import CopulaParam, frank_and, frank_or, solve_s, xor_f
from .datasets import (Dataset, builtin, builtin_names, emit_csv, grid_axis,
                       load_csv)
from .errors import DomainError, XorlabError
from .linalg import Matrix, least_squares
from .network import (collapse_linear, count_weights, forward, load_model,
                      parse_spec, save_model)
from .problogic import (check_consistency, copula_prob,
                        empirical_frequencies, parse_expr)

SCHEMA_VERSION = "1"


def _fmt_num(v: float) -> str:
    return format(float(v), ".12g")


def _emit(args, payload: dict, pretty: "list[str]") -> None:
    if args.format == "json":
        doc = {"schema_version": SCHEMA_VERSION}
        doc.update(payload)
        print(json.dumps(doc, sort_keys=True))
    else:
        for line in pretty:
            print(line)


def _load_data(text: str) -> Dataset:
    if text in builtin_names():
        return builtin(text)
    if Path(text).exists():
        return load_csv(text)
    # surfaces the built-in list in the error
    return builtin(text)


def _select(data: Dataset, target: "str | None") -> Dataset:
    return data.select_target(target) if target else data


def _parse_pair_floats(text: str, what: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise DomainError(f"{what} wants two comma-separated numbers, "
                          f"got {text!r}")
    try:
        return (float(parts[0]), float(parts[1]))
    except ValueError:
        raise DomainError(f"cannot parse {what} {text!r}") from None


def _parse_assign(text: str) -> dict:
    out = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        name, sep, value = piece.partition("=")
        if not sep:
            raise DomainError(f"assignment {piece!r} is not name=value")
        try:
            out[name.strip()] = float(value)
        except ValueError:
            raise DomainError(
                f"assignment {piece!r} has a non-numeric value") from None
    if not out:
        raise DomainError("empty assignment list")
    return out


def _parse_input(text: str) -> tuple:
    try:
        xs = tuple(float(p) for p in text.split(","))
    except ValueError:
        raise DomainError(
            f"input {text!r} is not a comma-separated list of numbers"
        ) from None
    # a net turns 0 * inf into NaN, and Matrix refuses non-finite weights
    if not all(map(math.isfinite, xs)):
        raise DomainError(f"input {text!r} is not a comma-separated list "
                          f"of finite numbers")
    return xs


def _write_text(path: str, text: str) -> None:
    # build first, write once: failed commands leave no partial files
    with open(path, "w") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# copula

_CONNECTIVES = {"and": frank_and, "or": frank_or, "xor": xor_f}


def _cmd_copula_eval(args):
    s = CopulaParam.parse(args.s)
    fn = _CONNECTIVES[args.fn]
    value = float(fn(s, args.x, args.y))
    _emit(args, {"s": s.render(), "x": args.x, "y": args.y, "fn": args.fn,
                 "value": value},
          [_fmt_num(value)])
    return 0


def _cmd_copula_solve_s(args):
    param = solve_s(args.x, args.y, args.p)
    payload = {"x": args.x, "y": args.y, "p": args.p,
               "kind": param.kind, "s": param.render()}
    # every digit of a finite s, so that the printed value round-trips
    _emit(args, payload,
          [repr(param.s) if param.kind == "finite" else param.render()])
    return 0


def _cmd_copula_grid(args):
    s = CopulaParam.parse(args.s)
    fn = _CONNECTIVES[args.fn]
    axis = grid_axis(0.0, 1.0, args.steps)
    points = ((x, y, float(fn(s, x, y))) for x in axis for y in axis)
    summary = {"s": s.render(), "fn": args.fn, "steps": args.steps}
    if args.format == "json" and not args.out:
        _emit(args, {**summary, "rows": list(points)}, [])
        return 0
    text = kernels.grid_csv(b"x,y,value\n", axis, axis,
                            [v for _, _, v in points]).decode()
    if args.out:
        _write_text(args.out, text)
        _emit(args, {**summary, "out": args.out}, [f"wrote {args.out}"])
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# logic

# most distinct variables `logic table` takes: it writes 2^n rows, 65,536
# at the limit
MAX_TABLE_VARIABLES = 16


def _cmd_logic_prob(args):
    expr = parse_expr(args.expr)
    assign = _parse_assign(args.assign)
    s = CopulaParam.parse(args.s)
    with warnings.catch_warnings(record=True) as grabbed:
        warnings.simplefilter("always")
        value = float(copula_prob(expr, assign, s))
        caught = [str(w.message) for w in grabbed]
    for msg in caught:
        print(f"warning: {msg}", file=sys.stderr)
    _emit(args, {"expr": expr.render(), "s": s.render(), "value": value,
                 "warnings": caught},
          [_fmt_num(value)])
    return 0


def _cmd_logic_table(args):
    expr = parse_expr(args.expr)
    names = expr.variables()
    if len(names) > MAX_TABLE_VARIABLES:
        raise DomainError(f"a truth table takes at most "
                          f"{MAX_TABLE_VARIABLES} variables, got "
                          f"{len(names)}")
    rows = []
    for bits in range(1 << len(names)):
        assignment = {name: (bits >> (len(names) - 1 - k)) & 1
                      for k, name in enumerate(names)}
        rows.append([assignment[n] for n in names]
                    + [expr.evaluate(assignment)])
    header = list(names) + ["value"]
    pretty = ["  ".join(header)]
    for row in rows:
        pretty.append("  ".join(str(v).rjust(len(h))
                                for v, h in zip(row, header)))
    _emit(args, {"expr": expr.render(), "variables": list(names),
                 "rows": rows}, pretty)
    return 0


def _cmd_logic_freq(args):
    data = _load_data(args.data)
    freqs = empirical_frequencies(data)
    names = data.inputs + data.targets
    pretty = [f"{name}: {_fmt_num(float(freqs[name]))}" for name in names]
    payload = {"dataset": data.name,
               "frequencies": {n: float(freqs[n]) for n in names}}
    if args.check:
        for col in ("x1", "x2", "and", "or"):
            if col not in freqs:
                raise DomainError(
                    f"--check needs columns x1, x2, and, or; dataset "
                    f"{data.name!r} has {', '.join(names)}")
        verdict = check_consistency(freqs["x1"], freqs["x2"],
                                    freqs["and"], freqs["or"])
        for chk in verdict.checks:
            pretty.append(f"{chk.name}: {'ok' if chk.ok else 'FAIL'}")
        pretty.append(f"consistent: {'yes' if verdict.consistent else 'no'}")
        payload["checks"] = {c.name: c.ok for c in verdict.checks}
        payload["consistent"] = verdict.consistent
    _emit(args, payload, pretty)
    return 0


# ---------------------------------------------------------------------------
# regression

def _cmd_regress(args):
    data = _select(_load_data(args.data), args.target)
    pairs = data.single()
    if data.n_inputs != 2:
        raise DomainError(
            f"regress expects 2-input datasets, got {data.n_inputs}")
    x1 = [ins[0] for ins, _ in pairs]
    x2 = [ins[1] for ins, _ in pairs]
    ts = [t for _, t in pairs]
    rows = [x1, x2]
    if args.product_feature:
        rows.append([a * b for a, b in zip(x1, x2)])
    rows.append([1.0] * len(ts))
    weights = least_squares(Matrix.from_rows(rows),
                            Matrix.from_rows([ts]))
    wvec = list(weights.row(0))
    sse_val = 0.0
    for k in range(len(ts)):
        pred = sum(w * rows[i][k] for i, w in enumerate(wvec))
        sse_val += (pred - ts[k]) ** 2
    _emit(args, {"dataset": data.name,
                 "product_feature": bool(args.product_feature),
                 "weights": wvec, "sse": sse_val},
          [f"weights: {' '.join(_fmt_num(w) for w in wvec)}",
           f"sse: {_fmt_num(sse_val)}"])
    return 0


# ---------------------------------------------------------------------------
# net

def _cmd_net_forward(args):
    net = load_model(args.model)
    xs = _parse_input(args.input)
    trace = forward(net, xs)
    _emit(args, {"input": list(xs), "output": trace.output,
                 "pre": [list(t) for t in trace.pre],
                 "post": [list(t) for t in trace.post]},
          [_fmt_num(trace.output)])
    return 0


def _cmd_net_collapse(args):
    net = load_model(args.model)
    flat = collapse_linear(net)
    save_model(flat, args.out)
    _emit(args, {"spec": flat.topology.render(), "out": args.out},
          [f"wrote {args.out} ({flat.topology.render()})"])
    return 0


def _cmd_net_count(args):
    n = count_weights(args.spec)
    _emit(args, {"spec": args.spec, "count": n}, [str(n)])
    return 0


# ---------------------------------------------------------------------------
# train / classify / sweep

def _train_config(args) -> trainer_mod.TrainConfig:
    return trainer_mod.TrainConfig(
        seed=args.seed,
        learning_rate=args.lr,
        max_iters=args.max_iters,
        tol=args.tol,
        mode=args.mode.replace("-", "_"),
        init_range=args.init_range,
        record_trajectory=bool(getattr(args, "log", None)),
    )


def _cmd_train(args):
    data = _select(_load_data(args.data), args.target)
    cfg = _train_config(args)
    topo = parse_spec(args.spec)
    result = trainer_mod.train(topo, data, cfg)
    if args.out:
        save_model(result.final_net, args.out, seed=cfg.seed)
    if args.log:
        lines = ["iteration,sse"]
        for k, v in enumerate(result.trajectory, start=1):
            lines.append(f"{k},{format(v, '.17g')}")
        _write_text(args.log, "\n".join(lines) + "\n")
    meta = trainer_mod.run_metadata(topo, cfg, result)
    pretty = [
        f"converged: {'yes' if result.converged else 'no'}",
        f"iterations: {result.iterations}",
        f"final_sse: {_fmt_num(result.final_sse)}",
    ]
    if args.out:
        meta["model"] = args.out
        pretty.append(f"model: {args.out}")
    if args.log:
        meta["log"] = args.log
        pretty.append(f"log: {args.log}")
    _emit(args, meta, pretty)
    return 0


def _cmd_classify(args):
    net = load_model(args.model)
    label = trainer_mod.classify(net, tol=args.tol, grid=args.grid)
    payload = {"label": label.render(), "kind": label.kind,
               "max_deviation": label.max_deviation}
    if label.s is not None:
        payload["s"] = label.s
    _emit(args, payload,
          [f"label: {label.render()}",
           f"max_deviation: {_fmt_num(label.max_deviation)}"])
    return 0


def _cmd_sweep(args):
    data = _select(_load_data(args.data), args.target)
    cfg = _train_config(args)
    topo = parse_spec(args.spec)
    entries = trainer_mod.sweep(topo, data, cfg, args.restarts,
                                classify_tol=args.classify_tol,
                                classify_grid=args.classify_grid)
    hist = trainer_mod.label_histogram(entries)
    n_conv = sum(1 for e in entries if e.result.converged)
    if args.out:
        lines = ["seed,converged,diverged,iterations,final_sse,label,"
                 "max_deviation,envelope_ok"]
        for e in entries:
            env = "" if e.envelope_ok is None else str(e.envelope_ok).lower()
            lines.append(
                f"{e.seed},{str(e.result.converged).lower()},"
                f"{str(e.result.diverged).lower()},{e.result.iterations},"
                f"{format(e.result.final_sse, '.17g')},{e.label.render()},"
                f"{format(e.label.max_deviation, '.17g')},{env}")
        _write_text(args.out, "\n".join(lines) + "\n")
    pretty = [f"converged: {n_conv}/{len(entries)}"]
    pretty += [f"{label}: {count}" for label, count in hist.items()]
    if args.out:
        pretty.append(f"runs: {args.out}")
    payload = {"spec": topo.render(), "dataset": data.name,
               "restarts": args.restarts, "seed": args.seed,
               "converged": n_conv, "histogram": hist}
    if args.out:
        payload["out"] = args.out
    _emit(args, payload, pretty)
    return 0


# ---------------------------------------------------------------------------
# surface

def _surface_grid(args, net, data, pair_a, pair_b):
    rng = _parse_pair_floats(args.range, "--range")
    return surface_mod.project(net, data, pair_a, pair_b,
                               range_a=rng, range_b=rng, steps=args.steps)


def _cmd_surface(args):
    net = load_model(args.model)
    data = _select(_load_data(args.data), args.target)
    names = args.pair.split(",")
    if len(names) != 2:
        raise DomainError(
            f"--pair wants two comma-separated coordinates, got "
            f"{args.pair!r}")
    a = surface_mod.parse_coord(names[0])
    b = surface_mod.parse_coord(names[1])
    grid = _surface_grid(args, net, data, a, b)
    # the stats can fail (steps < 3): compute them before writing anything
    stats = surface_mod.landscape_stats(grid)
    surface_mod.emit_grid_csv(grid, args.out, model_ref=args.model)
    _emit(args,
          {"pair": [a.render(), b.render()], "steps": grid.steps,
           "out": args.out, "min_value": stats.min_value,
           "min_point": list(stats.min_point),
           "strict_minima": stats.strict_minima,
           "plateau_fraction": stats.plateau_fraction},
          [f"wrote {args.out}",
           f"min: {_fmt_num(stats.min_value)} at "
           f"({_fmt_num(stats.min_point[0])}, "
           f"{_fmt_num(stats.min_point[1])})",
           f"strict_minima: {stats.strict_minima}",
           f"plateau_fraction: {_fmt_num(stats.plateau_fraction)}"])
    return 0


def _cmd_surface_all_pairs(args):
    net = load_model(args.model)
    data = _select(_load_data(args.data), args.target)
    out_dir = Path(args.out_dir)
    pairs = surface_mod.enumerate_pairs(net.topology)
    written = []
    for a, b in pairs:
        grid = _surface_grid(args, net, data, a, b)
        # only now: a range that fails the first grid leaves no directory
        out_dir.mkdir(parents=True, exist_ok=True)
        name = f"{a.render()}__{b.render()}.csv"
        surface_mod.emit_grid_csv(grid, out_dir / name,
                                  model_ref=args.model)
        written.append(name)
    _emit(args, {"out_dir": str(out_dir), "pairs": len(pairs),
                 "files": written},
          [f"wrote {len(pairs)} grids to {out_dir}"])
    return 0


# ---------------------------------------------------------------------------
# dataset

def _cmd_dataset_emit(args):
    data = builtin(args.name)
    emit_csv(data, args.out)
    _emit(args, {"name": data.name, "out": args.out, "samples": len(data)},
          [f"wrote {args.out}"])
    return 0


def _cmd_dataset_list(args):
    rows = []
    pretty = []
    for name in builtin_names():
        ds = builtin(name)
        rows.append({"name": name, "samples": len(ds),
                     "inputs": list(ds.inputs), "targets": list(ds.targets),
                     "reconstructed": ds.reconstructed})
        flag = " (reconstructed)" if ds.reconstructed else ""
        pretty.append(f"{name}: {len(ds)} samples, "
                      f"targets {','.join(ds.targets)}{flag}")
    _emit(args, {"datasets": rows}, pretty)
    return 0


# ---------------------------------------------------------------------------
# parser assembly

def _add_format(p: argparse.ArgumentParser, default) -> None:
    p.add_argument("--format", choices=("pretty", "json"), default=default,
                   help="output format (default pretty)")


def _command(p: argparse.ArgumentParser, func) -> None:
    """Make p run func, and add --format as its last option.  The option
    stays off the namespace unless it is given, so the root --format
    holds when it is not, and one given after the command wins."""
    _add_format(p, argparse.SUPPRESS)
    p.set_defaults(func=func)


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lr", type=float, default=0.1,
                   help="learning rate (default 0.1)")
    p.add_argument("--max-iters", type=int, default=10000,
                   help="iteration cap (default 10000)")
    p.add_argument("--tol", type=float, default=0.001,
                   help="SSE convergence threshold (default 0.001)")
    p.add_argument("--mode", choices=("per-sample", "full-batch"),
                   default="per-sample")
    p.add_argument("--init-range", type=float, default=1.0,
                   help="uniform init bound (default 1.0)")
    p.add_argument("--seed", type=int, required=True,
                   help="RNG seed (mandatory, runs are reproducible)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xorlab",
        description="Copula, logic, network, and error-surface tooling "
                    "for the exclusive-or problem.")
    _add_format(parser, "pretty")
    sub = parser.add_subparsers(dest="command", required=True)

    cop = sub.add_parser("copula", help="copula evaluation and grids")
    cop_sub = cop.add_subparsers(dest="subcommand", required=True)

    p = cop_sub.add_parser("eval", help="A_s / R_s / F_s at a point")
    p.add_argument("--s", required=True, help="0, 1, inf, or a float")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--fn", choices=tuple(_CONNECTIVES), required=True)
    _command(p, _cmd_copula_eval)

    p = cop_sub.add_parser("solve-s",
                           help="invert A_s(x, y) = p for the parameter")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--p", type=float, required=True)
    _command(p, _cmd_copula_solve_s)

    p = cop_sub.add_parser("grid", help="x,y,value CSV over [0,1]^2")
    p.add_argument("--s", required=True)
    p.add_argument("--fn", choices=tuple(_CONNECTIVES), default="xor")
    p.add_argument("--steps", type=int, default=101)
    p.add_argument("--out", default=None)
    _command(p, _cmd_copula_grid)

    logic = sub.add_parser("logic", help="probabilistic logic")
    logic_sub = logic.add_subparsers(dest="subcommand", required=True)

    p = logic_sub.add_parser(
        "prob", help="compositional copula probability of an expression "
                     "(precedence: not > and > xor > or)")
    p.add_argument("--expr", required=True)
    p.add_argument("--assign", required=True, help="x1=0.3,x2=0.7 style")
    p.add_argument("--s", required=True)
    _command(p, _cmd_logic_prob)

    p = logic_sub.add_parser("table", help="truth table of an expression")
    p.add_argument("--expr", required=True)
    _command(p, _cmd_logic_table)

    p = logic_sub.add_parser("freq",
                             help="per-column empirical frequencies")
    p.add_argument("--data", required=True, help="built-in name or CSV path")
    p.add_argument("--check", action="store_true",
                   help="run the axiom consistency checks")
    _command(p, _cmd_logic_freq)

    p = sub.add_parser("regress", help="least-squares linear fit")
    p.add_argument("--data", required=True)
    p.add_argument("--product-feature", action="store_true",
                   help="add the x3 = x1*x2 column")
    p.add_argument("--target", default=None,
                   help="target column for multi-target datasets")
    _command(p, _cmd_regress)

    net = sub.add_parser("net", help="network evaluation and transforms")
    net_sub = net.add_subparsers(dest="subcommand", required=True)

    p = net_sub.add_parser("forward", help="evaluate a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True, help="comma-separated inputs")
    _command(p, _cmd_net_forward)

    p = net_sub.add_parser("collapse",
                           help="fold an all-id model to a single layer")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    _command(p, _cmd_net_collapse)

    p = net_sub.add_parser("count", help="weight count of a topology")
    p.add_argument("--spec", required=True,
                   help="2-9-1 or 2-9-1/inp-tanh-tanh")
    _command(p, _cmd_net_count)

    p = sub.add_parser("train", help="one seeded training run")
    p.add_argument("--spec", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--target", default=None)
    _add_train_flags(p)
    p.add_argument("--out", default=None, help="write the model document")
    p.add_argument("--log", default=None,
                   help="write per-iteration SSE CSV")
    _command(p, _cmd_train)

    p = sub.add_parser("classify",
                       help="label a model against the limit functions")
    p.add_argument("--model", required=True)
    p.add_argument("--tol", type=float, default=0.05)
    p.add_argument("--grid", type=int, default=21)
    _command(p, _cmd_classify)

    p = sub.add_parser("sweep", help="multi-restart training histogram")
    p.add_argument("--spec", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--target", default=None)
    p.add_argument("--restarts", type=int, required=True)
    _add_train_flags(p)
    p.add_argument("--classify-tol", type=float, default=0.05)
    p.add_argument("--classify-grid", type=int, default=21)
    p.add_argument("--out", default=None, help="write the per-run CSV")
    _command(p, _cmd_sweep)

    p = sub.add_parser("surface",
                       help="error-surface projection grid "
                            "(or: surface all-pairs)")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--target", default=None)
    p.add_argument("--pair", required=True, help="w1_11,w1_12 style")
    p.add_argument("--range", default="-5,5", help="LO,HI for both axes")
    p.add_argument("--steps", type=int, default=101)
    p.add_argument("--out", required=True)
    _command(p, _cmd_surface)

    p = sub.add_parser("surface-all-pairs",
                       help="every pairwise projection of a model "
                            "(also spelled: surface all-pairs)")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--target", default=None)
    p.add_argument("--range", default="-5,5")
    p.add_argument("--steps", type=int, default=101)
    p.add_argument("--out-dir", required=True)
    _command(p, _cmd_surface_all_pairs)

    ds = sub.add_parser("dataset", help="built-in dataset access")
    ds_sub = ds.add_subparsers(dest="subcommand", required=True)

    p = ds_sub.add_parser("emit", help="write a built-in dataset as CSV")
    p.add_argument("--name", required=True)
    p.add_argument("--out", required=True)
    _command(p, _cmd_dataset_emit)

    p = ds_sub.add_parser("list", help="list built-in datasets")
    _command(p, _cmd_dataset_list)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """main's parser, built once per process: that takes milliseconds."""
    return build_parser()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # "surface all-pairs" reads naturally but argparse wants one token
    if argv[:2] == ["surface", "all-pairs"]:
        argv = ["surface-all-pairs"] + argv[2:]
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (XorlabError, OSError) as exc:
        # OSError: a file named on the command line cannot be read or
        # written (missing, a directory, no permission)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
