"""The X and Y series against sympy's own series expansions.

``x_matrix`` and ``y_matrix`` sum hand-written terminating series in the
classical raising matrix Zp.  Here sympy supplies the Taylor coefficients
of atanh(t) and sqrt(1 - t^2), the ladder matrices are built from the
Condon-Shortley formula, and

    X = (2/h) atanh(h Zp / 2),   Y = s Zm s,   s = sqrt(1 - (h Zp / 2)^2)

are compared entry by entry, as polynomials in h, for every j <= 3.
"""

import pytest

sympy = pytest.importorskip("sympy")

from jordanian.halfint import half  # noqa: E402
from jordanian.irreps import x_matrix, y_matrix  # noqa: E402

h, t = sympy.symbols("h t")
SPINS = [half(n, 2) for n in range(7)]


def _ladders(j):
    """Classical Zp, Zm on the basis m = j, j-1, ..., -j."""
    n = j.twice + 1
    jj = sympy.Rational(j.twice, 2)
    zp = sympy.zeros(n, n)
    for col in range(1, n):
        m = jj - col
        zp[col - 1, col] = sympy.sqrt((jj - m) * (jj + m + 1))
    return zp, zp.T


def _matrix_function(f, a, n):
    """f(a) for nilpotent a with a**n == 0, from sympy's series of f(t)."""
    poly = sympy.series(f, t, 0, n).removeO()
    out = sympy.zeros(*a.shape)
    power = sympy.eye(a.shape[0])
    for k in range(n):
        out += poly.coeff(t, k) * power
        power = power * a
    return out


def _as_sympy(p):
    return sum((sympy.Rational(q.numerator, q.denominator) * sympy.sqrt(n) * h**k
                for q, n, k in p.sorted_terms()), sympy.S.Zero)


def _assert_equal(matrix, expected):
    for i in range(matrix.rows):
        for k in range(matrix.cols):
            diff = sympy.expand(_as_sympy(matrix.entry(i, k)) - expected[i, k])
            assert diff == 0, (i, k, diff)


@pytest.mark.parametrize("j", SPINS, ids=str)
def test_x_matches_atanh_series(j):
    n = j.twice + 1
    zp, _ = _ladders(j)
    atanh = _matrix_function(sympy.atanh(t), h * zp / 2, n + 1)
    _assert_equal(x_matrix(j), (2 / h * atanh).applyfunc(sympy.expand))


@pytest.mark.parametrize("j", SPINS, ids=str)
def test_y_matches_square_root_series(j):
    n = j.twice + 1
    zp, zm = _ladders(j)
    s = _matrix_function(sympy.sqrt(1 - t**2), h * zp / 2, n + 1)
    _assert_equal(y_matrix(j), (s * zm * s).applyfunc(sympy.expand))
