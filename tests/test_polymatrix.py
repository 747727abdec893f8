"""Dense exact matrices: shapes, weights, products, exp/inverse series."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanian.halfint import half
from jordanian.hpoly import HPoly
from jordanian.polymatrix import (PolyMatrix, ShapeError, anticommutator,
                                  commutator, exp_nilpotent, kron,
                                  power_series, unipotent_inverse)
from jordanian.radical import RadScalar


def test_shape_validation():
    with pytest.raises(ShapeError):
        PolyMatrix([])
    with pytest.raises(ShapeError):
        PolyMatrix([[]])
    with pytest.raises(ShapeError):
        PolyMatrix([[1, 2], [3]])
    with pytest.raises(ShapeError):
        PolyMatrix([[1]], row_weights=[half(1), half(-1)])
    with pytest.raises(ShapeError):
        PolyMatrix([[1]], col_weights=[])
    with pytest.raises(TypeError):
        PolyMatrix([["x"]])


def test_shape_mismatch_in_arithmetic():
    a = PolyMatrix.zeros(2, 2)
    b = PolyMatrix.zeros(2, 3)
    with pytest.raises(ShapeError):
        a + b
    with pytest.raises(ShapeError):
        a - b
    with pytest.raises(ShapeError):
        b @ b
    assert (a @ b).shape == (2, 3)


def test_entry_and_scalar_access():
    m = PolyMatrix([[1, 2], [3, 4]])
    assert m.entry(1, 0) == HPoly.constant(3)
    assert m.column(1).shape == (2, 1)
    assert m.row(0).shape == (1, 2)
    assert m.column(1).entry(0, 0) == HPoly.constant(2)
    assert m.submatrix([1], [1]).scalar() == HPoly.constant(4)
    with pytest.raises(ShapeError):
        m.scalar()


def test_weights_propagate_through_products_and_slices():
    w = (half(1), half(-1))
    m = PolyMatrix([[1, 2], [3, 4]], row_weights=w, col_weights=w)
    assert (m @ m).row_weights == w
    assert (m @ m).col_weights == w
    assert m.transpose().row_weights == w
    assert m.column(0).row_weights == w
    assert m.column(0).col_weights == (half(1),)
    assert m.submatrix([1], [0, 1]).row_weights == (half(-1),)
    # sums keep weights only when both sides agree
    other = PolyMatrix([[1, 0], [0, 1]], row_weights=(half(3), half(1)))
    assert (m + other).row_weights is None
    assert (m + m).row_weights == w


def test_pickle_and_deepcopy_round_trip():
    w = (half(1), half(-1))
    m = PolyMatrix([[HPoly.h(1, RadScalar.of(Fraction(1, 2), 8)), 0], [3, 4]], w, w)
    for back in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
        assert back == m and back.row_weights == w and back.col_weights == w
        with pytest.raises(TypeError):
            back.entry(0, 0).coeffs[1].terms[2] = Fraction(1)


def test_equality_ignores_weights():
    a = PolyMatrix([[1]], row_weights=(half(2),))
    b = PolyMatrix([[1]])
    assert a == b and hash(a) == hash(b)
    assert a != PolyMatrix([[2]])
    assert PolyMatrix([[1]]) != PolyMatrix([[1, 0]])


def test_scalar_multiplication_and_division():
    m = PolyMatrix([[2, 4], [6, 8]])
    assert m * Fraction(1, 2) == PolyMatrix([[1, 2], [3, 4]])
    assert Fraction(1, 2) * m == m / 2
    h = HPoly.h(1)
    assert (m * h).entry(0, 0) == HPoly.h(1, 2)
    assert (m * h).divide_h(1) == m
    with pytest.raises(ValueError):
        (m * h + PolyMatrix.identity(2)).divide_h(1)


def test_matmul_known_product():
    a = PolyMatrix([[1, 2], [3, 4]])
    b = PolyMatrix([[0, 1], [1, 0]])
    assert a @ b == PolyMatrix([[2, 1], [4, 3]])
    assert a @ PolyMatrix.identity(2) == a


def test_diagonal_constructor():
    d = PolyMatrix.diagonal([1, 2, 3])
    assert d.entry(1, 1) == HPoly.constant(2)
    assert d.entry(0, 1) == HPoly.zero()
    w = (half(2), half(0), half(-2))
    dw = PolyMatrix.diagonal([1, 1, 1], weights=w)
    assert dw.row_weights == w and dw.col_weights == w


def test_transpose_involution_and_product_rule():
    a = PolyMatrix([[1, 2], [3, 4]])
    b = PolyMatrix([[0, 1], [1, 1]])
    assert a.transpose().transpose() == a
    assert (a @ b).transpose() == b.transpose() @ a.transpose()


def test_commutators():
    a = PolyMatrix([[0, 1], [0, 0]])
    b = PolyMatrix([[0, 0], [1, 0]])
    assert commutator(a, b) == PolyMatrix.diagonal([1, -1])
    assert anticommutator(a, b) == PolyMatrix.identity(2)
    assert commutator(a, a).is_zero


def test_zero_inspection_helpers():
    z = PolyMatrix.zeros(2, 3)
    assert z.is_zero
    assert z.first_nonzero() is None
    assert z.max_degree() == -1
    m = PolyMatrix([[0, 0], [HPoly.h(2), 0]])
    assert not m.is_zero
    assert m.first_nonzero() == (1, 0, HPoly.h(2))
    assert m.max_degree() == 2


def test_eval_h_entrywise():
    m = PolyMatrix([[HPoly.h(1, 2), 1], [0, HPoly.h(2, Fraction(1, 4))]])
    at2 = m.eval_h(2)
    assert at2 == PolyMatrix([[4, 1], [0, 1]])
    assert m.eval_h(0) == PolyMatrix([[0, 1], [0, 0]])


def test_exp_nilpotent_inverse_pair():
    n = PolyMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    h = HPoly.h(1)
    e_plus = exp_nilpotent(n, h)
    e_minus = exp_nilpotent(n, -h)
    assert e_plus @ e_minus == PolyMatrix.identity(3)
    assert e_plus.entry(0, 2) == HPoly.h(2, Fraction(1, 2))
    assert unipotent_inverse(e_plus) == e_minus


def test_exp_nilpotent_rejects_bad_input():
    with pytest.raises(ShapeError):
        exp_nilpotent(PolyMatrix.zeros(2, 3))
    with pytest.raises(ValueError):
        exp_nilpotent(PolyMatrix.identity(2))
    with pytest.raises(ShapeError):
        unipotent_inverse(PolyMatrix.zeros(2, 3))
    with pytest.raises(ValueError):
        unipotent_inverse(PolyMatrix.diagonal([2, 1]))
    with pytest.raises(ShapeError):
        power_series(PolyMatrix.zeros(2, 3), lambda k: 1)
    with pytest.raises(ValueError):
        power_series(PolyMatrix.identity(2), lambda k: 1)


def test_power_series_terminates_at_first_zero_power():
    n = PolyMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert power_series(n, lambda k: k + 2) == PolyMatrix(
        [[2, 3, 4], [0, 2, 3], [0, 0, 2]])


def test_unipotent_inverse_of_triangular():
    u = PolyMatrix([[1, HPoly.h(1), HPoly.h(2, 5)],
                    [0, 1, HPoly.h(1, -3)],
                    [0, 0, 1]])
    assert u @ unipotent_inverse(u) == PolyMatrix.identity(3)
    assert unipotent_inverse(u) @ u == PolyMatrix.identity(3)


small = st.integers(min_value=-4, max_value=4)


def matrices(rows, cols):
    return st.lists(
        st.lists(small, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows).map(PolyMatrix)


@settings(max_examples=40)
@given(matrices(2, 2), matrices(2, 2), matrices(2, 2))
def test_matmul_associativity(a, b, c):
    assert (a @ b) @ c == a @ (b @ c)
    assert a @ (b + c) == a @ b + a @ c


@settings(max_examples=30)
@given(matrices(2, 2), matrices(2, 2), matrices(2, 2), matrices(2, 2))
def test_kron_mixed_product(a, b, c, d):
    # (A (x) B)(C (x) D) = (AC) (x) (BD)
    assert kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)


@settings(max_examples=30)
@given(matrices(2, 3), matrices(3, 2))
def test_kron_shapes_and_transpose(a, b):
    k = kron(a, b)
    assert k.shape == (a.rows * b.rows, a.cols * b.cols)
    assert k.transpose() == kron(a.transpose(), b.transpose())


def test_kron_identity_blocks():
    a = PolyMatrix([[1, 2], [3, 4]])
    k = kron(PolyMatrix.identity(2), a)
    assert k.submatrix([0, 1], [0, 1]) == a
    assert k.submatrix([0, 1], [2, 3]).is_zero
    assert k.submatrix([2, 3], [2, 3]) == a
