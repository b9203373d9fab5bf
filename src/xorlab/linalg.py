"""Minimal dense-matrix kernel.

Multiply, transpose, and invert small square matrices, plus the closed-form
normal-equations least-squares solve.  Everything here is tiny (at most a
few dozen rows), so the implementation favors clarity over speed: Gaussian
elimination with partial pivoting, no factorization machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError, ShapeError, SingularMatrixError

# Pivot magnitudes below this are treated as exact rank deficiency.
PIVOT_TOL = 1e-12


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix, entries stored row-major."""

    rows: int
    cols: int
    entries: tuple[float, ...]

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ShapeError(f"matrix dimensions must be positive, "
                             f"got {self.rows}x{self.cols}")
        if len(self.entries) != self.rows * self.cols:
            raise ShapeError(f"{self.rows}x{self.cols} matrix needs "
                             f"{self.rows * self.cols} entries, "
                             f"got {len(self.entries)}")
        for v in self.entries:
            if not math.isfinite(v):
                raise DomainError(f"non-finite matrix entry {v!r}")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[float]]) -> "Matrix":
        if not rows:
            raise ShapeError("matrix needs at least one row")
        ncols = len(rows[0])
        flat: list[float] = []
        for r in rows:
            if len(r) != ncols:
                raise ShapeError("ragged rows in matrix literal")
            flat.extend(float(v) for v in r)
        return cls(len(rows), ncols, tuple(flat))

    def at(self, i: int, j: int) -> float:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[float, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def to_rows(self) -> list[list[float]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Standard matrix product a @ b."""
    if a.cols != b.rows:
        raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by "
                         f"{b.rows}x{b.cols}")
    out = [0.0] * (a.rows * b.cols)
    for i in range(a.rows):
        arow = a.row(i)
        for j in range(b.cols):
            acc = 0.0
            for k in range(a.cols):
                acc += arow[k] * b.entries[k * b.cols + j]
            out[i * b.cols + j] = acc
    return Matrix(a.rows, b.cols, tuple(out))


def transpose(a: Matrix) -> Matrix:
    out = [0.0] * (a.rows * a.cols)
    for i in range(a.rows):
        for j in range(a.cols):
            out[j * a.rows + i] = a.at(i, j)
    return Matrix(a.cols, a.rows, tuple(out))


def mat_inverse(a: Matrix) -> Matrix:
    """Inverse by Gauss-Jordan elimination with partial pivoting."""
    if a.rows != a.cols:
        raise ShapeError(f"cannot invert non-square {a.rows}x{a.cols} matrix")
    n = a.rows
    # augmented [a | I], mutated in place
    aug = [list(a.row(i)) + [1.0 if j == i else 0.0 for j in range(n)]
           for i in range(n)]
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if abs(aug[pivot_row][col]) < PIVOT_TOL:
            raise SingularMatrixError(
                f"singular matrix: pivot {aug[pivot_row][col]:.3e} below "
                f"tolerance {PIVOT_TOL:g} in column {col}")
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        row = aug[col]
        for j in range(2 * n):
            row[j] /= pivot
        for r in range(n):
            if r == col:
                continue
            factor = aug[r][col]
            if factor != 0.0:
                other = aug[r]
                for j in range(2 * n):
                    other[j] -= factor * row[j]
    return Matrix.from_rows([row[n:] for row in aug])


def least_squares(inputs: Matrix, targets: Matrix) -> Matrix:
    """Normal-equations solve: the 1 x (k+1) weight row minimizing SSE.

    `inputs` is (k+1) x n with the final row all ones (the bias row);
    `targets` is 1 x n.  Returns transpose(inv(X Xt) (X Tt)).
    """
    if targets.rows != 1:
        raise ShapeError(f"targets must be a single row, got "
                         f"{targets.rows}x{targets.cols}")
    if targets.cols != inputs.cols:
        raise ShapeError(f"inputs have {inputs.cols} samples but targets "
                         f"have {targets.cols}")
    bias_row = inputs.row(inputs.rows - 1)
    if any(v != 1.0 for v in bias_row):
        raise DomainError("final input row must be all ones (bias row)")
    gram = mat_mul(inputs, transpose(inputs))
    try:
        gram_inv = mat_inverse(gram)
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            f"rank-deficient system: {exc}") from exc
    moment = mat_mul(inputs, transpose(targets))
    return transpose(mat_mul(gram_inv, moment))
