"""Dense-matrix kernel tests: hand values, numpy oracles, and the
residual-orthogonality characterization of least squares."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xorlab.errors import DomainError, ShapeError, SingularMatrixError
from xorlab.linalg import (Matrix, least_squares, mat_inverse, mat_mul,
                           transpose)


def test_from_rows_and_accessors():
    m = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert m.shape == (2, 3)
    assert m.at(1, 2) == 6.0
    assert m.row(0) == (1.0, 2.0, 3.0)
    assert m.to_rows() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]


def test_from_rows_rejects_ragged_and_empty():
    with pytest.raises(ShapeError):
        Matrix.from_rows([[1.0, 2.0], [3.0]])
    with pytest.raises(ShapeError):
        Matrix.from_rows([])


def test_entries_must_be_finite():
    with pytest.raises(DomainError):
        Matrix.from_rows([[1.0, float("nan")]])
    with pytest.raises(DomainError):
        Matrix.from_rows([[float("inf")]])


def test_constructor_length_check():
    with pytest.raises(ShapeError):
        Matrix(2, 2, (1.0, 2.0, 3.0))


def test_identity_multiplication_is_neutral():
    a = Matrix.from_rows([[1.5, -2.0], [0.25, 3.0]])
    eye = Matrix(2, 2, (1.0, 0.0, 0.0, 1.0))
    assert mat_mul(eye, a).entries == a.entries
    assert mat_mul(a, eye).entries == a.entries


def test_mat_mul_hand_value():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[5, 6], [7, 8]])
    assert mat_mul(a, b).to_rows() == [[19.0, 22.0], [43.0, 50.0]]


def test_mat_mul_shape_mismatch():
    a = Matrix.from_rows([[1, 2, 3]])
    with pytest.raises(ShapeError):
        mat_mul(a, a)


def test_transpose_involution():
    a = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
    t = transpose(a)
    assert t.shape == (3, 2)
    assert t.at(2, 1) == 6.0
    assert transpose(t).entries == a.entries


def test_inverse_hand_value():
    a = Matrix.from_rows([[4, 7], [2, 6]])
    inv = mat_inverse(a)
    expected = [[0.6, -0.7], [-0.2, 0.4]]
    for i in range(2):
        for j in range(2):
            assert inv.at(i, j) == pytest.approx(expected[i][j], abs=1e-12)


def test_inverse_rejects_singular_and_nonsquare():
    with pytest.raises(SingularMatrixError):
        mat_inverse(Matrix.from_rows([[1, 2], [2, 4]]))
    with pytest.raises(ShapeError):
        mat_inverse(Matrix.from_rows([[1, 2, 3], [4, 5, 6]]))


@given(st.lists(st.lists(st.floats(-10, 10), min_size=3, max_size=3),
                min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_inverse_property_diagonally_dominant(rows):
    """A A^-1 = I for forced-nonsingular matrices."""
    # push the diagonal past the row sums so the matrix cannot be singular
    for i in range(3):
        rows[i][i] += 40.0
    a = Matrix.from_rows(rows)
    prod = mat_mul(a, mat_inverse(a))
    for i in range(3):
        for j in range(3):
            assert prod.at(i, j) == pytest.approx(
                1.0 if i == j else 0.0, abs=1e-9)


def _xor_system():
    inputs = Matrix.from_rows([[0, 0, 1, 1],
                               [0, 1, 0, 1],
                               [1, 1, 1, 1]])
    targets = Matrix.from_rows([[0, 1, 1, 0]])
    return inputs, targets


def test_least_squares_xor_plane():
    """The best plane through the xor corners is the constant 1/2."""
    inputs, targets = _xor_system()
    w = least_squares(inputs, targets)
    assert w.shape == (1, 3)
    assert w.at(0, 0) == pytest.approx(0.0, abs=1e-12)
    assert w.at(0, 1) == pytest.approx(0.0, abs=1e-12)
    assert w.at(0, 2) == pytest.approx(0.5, abs=1e-12)


def test_least_squares_matches_numpy():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(4, 12))
        k = int(rng.integers(1, 4))
        x = rng.uniform(-2, 2, size=(k, n))
        x = np.vstack([x, np.ones(n)])
        t = rng.uniform(-2, 2, size=(1, n))
        w = least_squares(Matrix.from_rows(x.tolist()),
                          Matrix.from_rows(t.tolist()))
        ref, *_ = np.linalg.lstsq(x.T, t.ravel(), rcond=None)
        assert np.allclose(np.array(w.to_rows()[0]), ref, atol=1e-9)


def test_least_squares_residual_orthogonality():
    """X (t - X^T w^T) = 0: the defining property of the projection."""
    inputs = Matrix.from_rows([[0.1, 0.9, 0.4, 0.7, 0.2],
                               [0.3, 0.5, 0.8, 0.1, 0.6],
                               [1.0, 1.0, 1.0, 1.0, 1.0]])
    targets = Matrix.from_rows([[0.2, 0.9, 0.7, 0.4, 0.5]])
    w = least_squares(inputs, targets)
    pred = mat_mul(w, inputs)
    residual = [t - p for t, p in zip(targets.entries, pred.entries)]
    for i in range(inputs.rows):
        dot = sum(inputs.at(i, j) * residual[j] for j in range(inputs.cols))
        assert abs(dot) < 1e-12


def test_least_squares_input_validation():
    inputs, targets = _xor_system()
    with pytest.raises(ShapeError):
        least_squares(inputs, Matrix.from_rows([[0, 1], [1, 0]]))
    with pytest.raises(ShapeError):
        least_squares(inputs, Matrix.from_rows([[0, 1, 1]]))
    with pytest.raises(DomainError):
        # bias row must be ones
        least_squares(Matrix.from_rows([[0, 0, 1, 1],
                                        [0, 1, 0, 1],
                                        [1, 1, 1, 2]]), targets)


def test_least_squares_rank_deficient():
    # duplicated feature row makes the Gram matrix singular
    inputs = Matrix.from_rows([[1, 2, 3],
                               [1, 2, 3],
                               [1, 1, 1]])
    with pytest.raises(SingularMatrixError):
        least_squares(inputs, Matrix.from_rows([[1, 2, 3]]))
