"""Built-in training tables, copula-synthesized sets, baseline candidate
functions with their rounding discriminants, and CSV input/output.

Datasets are immutable multi-target tables: named input columns followed
by one or more named target columns, every value in [0,1].  Single-target
consumers (training, regression) require callers to select a column first
when a set carries several.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

from .copula import CopulaParam, xor_f
from .errors import (CsvFormatError, DomainError, ShapeError,
                     UnknownNameError)

__all__ = [
    "Dataset", "builtin", "builtin_names", "synth_copula", "grid_points",
    "baseline", "baseline_names", "sse_of", "load_csv", "emit_csv",
]


@dataclass(frozen=True)
class Dataset:
    """An immutable table of samples.

    rows holds (input values, target values) pairs aligned with the
    `inputs` and `targets` name tuples.  `reconstructed` marks sets whose
    source table was incomplete and was completed by a documented rule.
    """

    name: str
    inputs: tuple[str, ...]
    targets: tuple[str, ...]
    rows: tuple[tuple[tuple[float, ...], tuple[float, ...]], ...]
    reconstructed: bool = False

    def __post_init__(self):
        if not self.inputs:
            raise ShapeError("dataset needs at least one input column")
        if not self.targets:
            raise ShapeError("dataset needs at least one target column")
        if not self.rows:
            raise ShapeError(f"dataset {self.name!r} has no samples")
        ni, nt = len(self.inputs), len(self.targets)
        for ins, targs in self.rows:
            if len(ins) != ni or len(targs) != nt:
                raise ShapeError(
                    f"row arity mismatch in {self.name!r}: "
                    f"({len(ins)}, {len(targs)}) vs ({ni}, {nt})")
            for v in (*ins, *targs):
                if not (0.0 <= v <= 1.0):
                    raise DomainError(
                        f"value {v!r} outside [0, 1] in {self.name!r}")

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def n_inputs(self) -> int:
        return len(self.inputs)

    def target_index(self, name: str) -> int:
        try:
            return self.targets.index(name)
        except ValueError:
            raise UnknownNameError(
                f"no target {name!r} in dataset {self.name!r}; "
                f"targets are {', '.join(self.targets)}") from None

    def select_target(self, name: str) -> "Dataset":
        """Single-target view keeping one target column."""
        k = self.target_index(name)
        rows = tuple((ins, (targs[k],)) for ins, targs in self.rows)
        return Dataset(f"{self.name}[{name}]", self.inputs, (name,),
                       rows, self.reconstructed)

    def single(self) -> tuple[tuple[tuple[float, ...], float], ...]:
        """(inputs, target) pairs; requires exactly one target column."""
        if len(self.targets) != 1:
            raise ShapeError(
                f"dataset {self.name!r} has targets "
                f"{', '.join(self.targets)}; select one with "
                f"select_target() first")
        return tuple((ins, targs[0]) for ins, targs in self.rows)


def _mk(name, inputs, targets, raw, reconstructed=False):
    ni = len(inputs)
    rows = tuple((tuple(float(v) for v in r[:ni]),
                  tuple(float(v) for v in r[ni:])) for r in raw)
    return Dataset(name, tuple(inputs), tuple(targets), rows, reconstructed)


# the four Boolean corners in truth-table order
_CORNERS = ((0, 0), (0, 1), (1, 0), (1, 1))

# 10-draw Boolean sample, columns x1 x2 and or xor
_FIG2_1 = (
    (0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0),
    (1, 0, 0, 1, 1),
    (1, 1, 1, 1, 0),
    (0, 1, 0, 1, 1),
    (1, 0, 0, 1, 1),
    (0, 0, 0, 0, 0),
    (1, 1, 1, 1, 0),
    (1, 1, 1, 1, 0),
    (0, 1, 0, 1, 1),
)

# second 10-draw sample, same columns
_FIG2_4 = (
    (1, 0, 0, 1, 1),
    (0, 1, 0, 1, 1),
    (1, 0, 0, 1, 1),
    (0, 1, 0, 1, 1),
    (0, 1, 0, 1, 1),
    (1, 1, 1, 1, 0),
    (1, 0, 0, 1, 1),
    (0, 1, 0, 1, 1),
    (0, 1, 0, 1, 1),
    (0, 1, 0, 1, 1),
)

_ANALOG = (
    (0, 0, 0),
    (0, 0.5, 0.5),
    (0, 0.75, 0.75),
    (0, 1, 1),
    (0.5, 0, 0.5),
)

_COPULA_S1 = (
    (0.25, 0.25, 0.375),
    (0.25, 0.5, 0.5),
    (0.25, 0.75, 0.625),
    (0.5, 0.25, 0.5),
    (0.5, 0.5, 0.5),
)

# 9-sample combined set: the {0, 0.5, 1} x {0, 0.5, 1} lattice with s=1
# targets x+y-2xy, in row-major order.  The source table breaks off after
# five rows; the remaining four follow the same lattice rule, hence
# reconstructed=True.
_ALL = (
    (0, 0, 0),
    (0, 0.5, 0.5),
    (0, 1, 1),
    (0.5, 0, 0.5),
    (0.5, 0.5, 0.5),
    (0.5, 1, 0.5),
    (1, 0, 1),
    (1, 0.5, 0.5),
    (1, 1, 0),
)

# out-sample probe rows with one target column per limit parameter
_OUTSAMPLE = (
    (0.5, 1, 0.5, 0.5, 0.5),
    (0.5, 0.5, 0, 0.5, 1),
    (0.75, 0.25, 0.5, 0.625, 1),
    (0.75, 0.5, 0.25, 0.5, 0.75),
    (0.75, 0.75, 0, 0.375, 0.5),
)


def _bool_table(name, column):
    # column: index into (and, or, xor) truth values per corner
    truth = {
        "and": (0, 0, 0, 1),
        "or": (0, 1, 1, 1),
        "xor": (0, 1, 1, 0),
    }[column]
    raw = [(*c, t) for c, t in zip(_CORNERS, truth)]
    return _mk(name, ("x1", "x2"), ("target",), raw)


_BUILTINS: dict[str, Dataset] = {
    "boolean_xor": _bool_table("boolean_xor", "xor"),
    "boolean_and": _bool_table("boolean_and", "and"),
    "boolean_or": _bool_table("boolean_or", "or"),
    "fig2_1": _mk("fig2_1", ("x1", "x2"), ("and", "or", "xor"), _FIG2_1),
    "fig2_4": _mk("fig2_4", ("x1", "x2"), ("and", "or", "xor"), _FIG2_4),
    "analog": _mk("analog", ("x1", "x2"), ("target",), _ANALOG),
    "copula_s1": _mk("copula_s1", ("x1", "x2"), ("target",), _COPULA_S1),
    "all": _mk("all", ("x1", "x2"), ("target",), _ALL, reconstructed=True),
    "outsample_fig7_2": _mk("outsample_fig7_2", ("x1", "x2"),
                            ("s0", "s1", "sinf"), _OUTSAMPLE),
}


def builtin_names() -> tuple[str, ...]:
    return tuple(_BUILTINS)


def builtin(name: str) -> Dataset:
    """Look up a built-in dataset by its stable identifier."""
    try:
        return _BUILTINS[name]
    except KeyError:
        known = ", ".join(builtin_names())
        raise UnknownNameError(
            f"unknown dataset {name!r}; known: {known}") from None


def grid_points(steps: int) -> tuple[tuple[float, float], ...]:
    """The steps x steps uniform lattice on [0,1]^2, row-major."""
    if steps < 2:
        raise DomainError(f"grid needs at least 2 steps, got {steps}")
    axis = [i / (steps - 1) for i in range(steps)]
    return tuple((x, y) for x in axis for y in axis)


def synth_copula(s: CopulaParam,
                 points: "int | tuple[tuple[float, float], ...]") -> Dataset:
    """Dataset with targets xor_f(s, x1, x2) over the given input pairs.

    `points` may be an int n, meaning the n x n lattice on [0,1]^2.
    """
    if isinstance(points, int):
        points = grid_points(points)
    pts = tuple(points)
    if not pts:
        raise ShapeError("synth_copula needs at least one input pair")
    rows = tuple(((float(x), float(y)), (float(xor_f(s, x, y)),))
                 for x, y in pts)
    return Dataset(f"copula_s{s.render()}", ("x1", "x2"), ("target",), rows)


# ---------------------------------------------------------------------------
# baseline candidate functions

def _f_a(x1, x2):
    return 1.0


def _f_b(x1, x2):
    return 0.0


def _f_c(x1, x2):
    return 0.5


def _f_d(x1, x2):
    return 2.0 * x1 + 2.0 * x2 - 1.0


def _f_e(x1, x2):
    return x1 + x2 - 2.0 * x1 * x2


def _r_and(x1, x2):
    return 0.5 * x1 + 0.5 * x2 - 0.25


def _r_or(x1, x2):
    return 0.5 * x1 + 0.5 * x2 + 0.25


def _out_and(x1, x2):
    return 1.0 if _r_and(x1, x2) > 0.5 else 0.0


def _out_or(x1, x2):
    return 1.0 if _r_or(x1, x2) > 0.5 else 0.0


_BASELINES = {
    "Fa": _f_a,
    "Fb": _f_b,
    "Fc": _f_c,
    "Fd": _f_d,
    "Fe": _f_e,
    "Fg": _f_e,          # same closed form, fitted with a product feature
    "Rand": _r_and,
    "Ror": _r_or,
    "outAnd": _out_and,
    "outOr": _out_or,
}


def baseline_names() -> tuple[str, ...]:
    return tuple(_BASELINES)


def baseline(name: str, x1: float, x2: float) -> float:
    """Evaluate a named candidate function; discriminants return 0.0/1.0."""
    try:
        fn = _BASELINES[name]
    except KeyError:
        known = ", ".join(baseline_names())
        raise UnknownNameError(
            f"unknown baseline {name!r}; known: {known}") from None
    return fn(float(x1), float(x2))


def sse_of(name: str, data: Dataset) -> float:
    """Goodness of fit of a baseline over a single-target dataset."""
    total = 0.0
    for ins, target in data.single():
        if len(ins) != 2:
            raise ShapeError("baselines take exactly 2 inputs")
        d = baseline(name, ins[0], ins[1]) - target
        total += d * d
    return total


# ---------------------------------------------------------------------------
# CSV

def _fmt(v: float) -> str:
    return format(v, ".17g")


def _target_column(name: str, single: bool) -> str:
    if single and name == "target":
        return "target"
    return f"target_{name}"


def emit_csv(data: Dataset, path: "str | Path") -> None:
    """Header then one row per sample, 17 significant digits."""
    single = len(data.targets) == 1
    header = list(data.inputs) + [_target_column(t, single)
                                  for t in data.targets]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for ins, targs in data.rows:
            writer.writerow([_fmt(v) for v in (*ins, *targs)])


def _read_csv(path: Path, reader) -> tuple:
    """The input names, target names and rows read from reader."""
    try:
        header = next(reader)
    except StopIteration:
        raise CsvFormatError(f"{path}: empty file") from None
    inputs: list[str] = []
    targets: list[str] = []
    for col in header:
        col = col.strip()
        if col == "target" or col.startswith("target_"):
            targets.append(col[7:] if col.startswith("target_") else col)
        elif targets:
            raise CsvFormatError(
                f"{path}: line 1: input column {col!r} after a target "
                f"column")
        else:
            inputs.append(col)
    if not targets:
        raise CsvFormatError(f"{path}: line 1: no target column")
    if not inputs:
        raise CsvFormatError(f"{path}: line 1: no input columns")
    rows = []
    for record in reader:
        line = reader.line_num
        if not record:
            continue
        if len(record) != len(inputs) + len(targets):
            raise CsvFormatError(
                f"{path}: line {line}: expected "
                f"{len(inputs) + len(targets)} fields, got {len(record)}")
        values = []
        for cell in record:
            try:
                values.append(float(cell))
            except ValueError:
                raise CsvFormatError(
                    f"{path}: line {line}: not a number: "
                    f"{cell!r}") from None
        for v in values:
            if not (0.0 <= v <= 1.0):
                raise DomainError(
                    f"{path}: line {line}: value {v!r} outside [0, 1]")
        rows.append((tuple(values[:len(inputs)]),
                     tuple(values[len(inputs):])))
    return inputs, targets, rows


def load_csv(path: "str | Path", name: "str | None" = None) -> Dataset:
    """Read a dataset; input columns first, then target/target_* columns."""
    path = Path(path)
    try:
        with open(path, newline="") as fh:
            inputs, targets, rows = _read_csv(path, csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        # bytes that are not text, or a field past csv's size limit
        raise CsvFormatError(f"{path}: {exc}") from None
    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    return Dataset(name or path.stem, tuple(inputs), tuple(targets),
                   tuple(rows))
