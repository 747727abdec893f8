"""Entrywise reference for the matrix kernel, built from HPoly operations.

``PolyMatrix`` stores integer numerators over one denominator and works on
that storage directly.  The functions here compute the same matrices the slow
way, one scalar ring operation at a time, and attach weights by the rules
the library documents.  Tests compare the two.
"""

from fractions import Fraction
from math import factorial, lcm

from jordanian.hpoly import HPoly
from jordanian.polymatrix import PolyMatrix

MINUS_ONE = HPoly.constant(-1)


def _matrix(rows, row_weights=None, col_weights=None) -> PolyMatrix:
    return PolyMatrix(rows, row_weights, col_weights)


def _same_or_none(u, v):
    return u if u == v else None


def matmul(a, b) -> PolyMatrix:
    rows = []
    for i in range(a.rows):
        row = []
        for c in range(b.cols):
            acc = HPoly.zero()
            for k in range(a.cols):
                acc = acc + a.entries[i][k] * b.entries[k][c]
            row.append(acc)
        rows.append(row)
    return _matrix(rows, a.row_weights, b.col_weights)


def kron(a, b) -> PolyMatrix:
    return _matrix([[a.entries[i][k] * b.entries[r][c]
                     for k in range(a.cols) for c in range(b.cols)]
                    for i in range(a.rows) for r in range(b.rows)])


def add(a, b) -> PolyMatrix:
    return _matrix([[x + y for x, y in zip(ra, rb)]
                    for ra, rb in zip(a.entries, b.entries)],
                   _same_or_none(a.row_weights, b.row_weights),
                   _same_or_none(a.col_weights, b.col_weights))


def scale(a, s) -> PolyMatrix:
    s = HPoly.constant(s) if not isinstance(s, HPoly) else s
    return _matrix([[x * s for x in row] for row in a.entries],
                   a.row_weights, a.col_weights)


def neg(a) -> PolyMatrix:
    return scale(a, MINUS_ONE)


def sub(a, b) -> PolyMatrix:
    return add(a, neg(b))


def transpose(a) -> PolyMatrix:
    return _matrix([[a.entries[i][k] for i in range(a.rows)]
                    for k in range(a.cols)], a.col_weights, a.row_weights)


def submatrix(a, row_idx, col_idx) -> PolyMatrix:
    rw = tuple(a.row_weights[i] for i in row_idx) if a.row_weights else None
    cw = tuple(a.col_weights[k] for k in col_idx) if a.col_weights else None
    return _matrix([[a.entries[i][k] for k in col_idx] for i in row_idx], rw, cw)


def divide_h(a, k) -> PolyMatrix:
    """HPoly.divide_h entry by entry; raises as it does."""
    return _matrix([[p.divide_h(k) for p in row] for row in a.entries],
                   a.row_weights, a.col_weights)


def commutator(a, b) -> PolyMatrix:
    return sub(matmul(a, b), matmul(b, a))


def identity(n, weights=None) -> PolyMatrix:
    return _matrix([[HPoly.one() if i == k else HPoly.zero() for k in range(n)]
                    for i in range(n)], weights, weights)


def exp_nilpotent(a, factor) -> PolyMatrix:
    """sum_k (factor a)^k / k!, summed to the matrix size."""
    acc = power = identity(a.rows, a.row_weights)
    fk = HPoly.one()
    for k in range(1, a.rows + 1):
        power = matmul(power, a)
        fk = fk * factor
        acc = add(acc, scale(power, fk * HPoly.constant(Fraction(1, factorial(k)))))
    return acc


def unipotent_inverse(m) -> PolyMatrix:
    """sum_k (-(m - 1))^k, summed to the matrix size."""
    n = sub(m, identity(m.rows, m.row_weights))
    acc = power = identity(m.rows, m.row_weights)
    for _ in range(1, m.rows + 1):
        power = matmul(power, neg(n))
        acc = add(acc, power)
    return acc


def canonical_terms(m) -> tuple:
    """(den, data): the canonical term form of m's entries, equal for equal
    matrices whatever their storage.  den is the least common denominator
    of every coefficient (so gcd(den, numerators) = 1, and the zero matrix
    has den 1); data has per row a tuple of (col, terms) pairs of its
    nonzero entries in column order, terms the sorted (h-power, radicand,
    numerator) triples of the entry over den."""
    den = 1
    for row in m.entries:
        for p in row:
            for r in p.coeffs:
                for q in r.terms.values():
                    den = lcm(den, q.denominator)
    return den, tuple(
        tuple((c, tuple(sorted((k, n, q.numerator * (den // q.denominator))
                               for k, r in enumerate(p.coeffs)
                               for n, q in r.terms.items())))
              for c, p in enumerate(row) if p)
        for row in m.entries)
