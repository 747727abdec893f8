"""The fused PolyMatrix kernel against the entrywise oracle in matrix_oracle.

Every kernel operation (``@``, ``kron``, ``+``, ``-``, unary ``-``, scalar
``*`` and ``/``, and through them ``commutator``, ``exp_nilpotent`` and
``unipotent_inverse``) must give the matrix that HPoly ``+`` and ``*``
give entry by entry, in canonical form, with the same weight labels.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import matrix_oracle as oracle
from jordanian.halfint import half
from jordanian.hpoly import HPoly
from jordanian.irreps import Generator, coproduct_gens, irrep
from jordanian.polymatrix import (PolyMatrix, commutator, exp_nilpotent, kron,
                                  unipotent_inverse)
from jordanian.radical import RadScalar, squarefree_decompose

RADICANDS = (1, 2, 3, 6)
DENOMINATORS = (1, 2, 3, 4, 5, 6, 9)

terms = st.builds(lambda k, n, q: HPoly.h(k, RadScalar.of(q, n)),
                  st.integers(0, 4), st.sampled_from(RADICANDS),
                  st.builds(Fraction, st.integers(-6, 6),
                            st.sampled_from(DENOMINATORS)))
entries = st.lists(terms, max_size=3).map(lambda ts: sum(ts, HPoly.zero()))
single_terms = st.builds(RadScalar.of,
                         st.builds(Fraction, st.integers(-6, 6).filter(bool),
                                   st.sampled_from(DENOMINATORS)),
                         st.sampled_from(RADICANDS))


def _weight_choices(n):
    ladder = tuple(half(n - 1 - 2 * i, 2) for i in range(n))
    return st.sampled_from((None, ladder, ladder[::-1]))


@st.composite
def matrices(draw, rows=None, cols=None, upper=False):
    """Random entries, some rows and columns zeroed, optional weights."""
    rows = rows or draw(st.integers(1, 4))
    cols = cols or draw(st.integers(1, 4))
    data = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    for i in draw(st.sets(st.integers(0, rows - 1), max_size=rows)):
        data[i] = [HPoly.zero()] * cols
    for k in draw(st.sets(st.integers(0, cols - 1), max_size=cols)):
        for row in data:
            row[k] = HPoly.zero()
    if upper:
        data = [[p if k > i else HPoly.zero() for k, p in enumerate(row)]
                for i, row in enumerate(data)]
    return PolyMatrix(data, draw(_weight_choices(rows)), draw(_weight_choices(cols)))


def assert_canonical(m):
    assert isinstance(m.entries, tuple) and len(m.entries) == m.rows
    for row in m.entries:
        assert isinstance(row, tuple) and len(row) == m.cols
        for p in row:
            assert isinstance(p, HPoly) and isinstance(p.coeffs, tuple)
            assert not p.coeffs or p.coeffs[-1]
            for r in p.coeffs:
                assert isinstance(r, RadScalar)
                for n, q in r.terms.items():
                    assert type(q) is Fraction and q
                    assert squarefree_decompose(n) == (n, 1)


def assert_matches(result, expected):
    assert_canonical(result)
    assert result == expected
    assert result.row_weights == expected.row_weights
    assert result.col_weights == expected.col_weights
    assert str(result) == str(expected)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_matmul_matches_oracle(data):
    r, k, c = (data.draw(st.integers(1, 4)) for _ in range(3))
    a = data.draw(matrices(r, k))
    b = data.draw(matrices(k, c))
    assert_matches(a @ b, oracle.matmul(a, b))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_entrywise_ops_match_oracle(data):
    a = data.draw(matrices())
    b = data.draw(matrices(a.rows, a.cols))
    s = data.draw(entries)
    d = data.draw(single_terms)
    assert_matches(a + b, oracle.add(a, b))
    assert_matches(a - b, oracle.sub(a, b))
    assert_matches(-a, oracle.neg(a))
    assert_matches(a * s, oracle.scale(a, s))
    assert_matches(s * a, oracle.scale(a, s))
    assert_matches(a * Fraction(-2, 3), oracle.scale(a, Fraction(-2, 3)))
    assert_matches(a / d, oracle.scale(a, HPoly.constant(d.inverse())))
    assert_matches(a / 3, oracle.scale(a, Fraction(1, 3)))


@settings(max_examples=40, deadline=None)
@given(matrices(), matrices())
def test_kron_matches_oracle(a, b):
    assert_matches(kron(a, b), oracle.kron(a, b))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_series_match_oracle(data):
    n = data.draw(st.integers(1, 4))
    a = data.draw(matrices(n, n, upper=True))
    b = data.draw(matrices(n, n))
    a = PolyMatrix(a.entries, a.row_weights, a.row_weights)
    factor = data.draw(entries)
    assert_matches(commutator(a, b), oracle.commutator(a, b))
    assert_matches(exp_nilpotent(a, factor), oracle.exp_nilpotent(a, factor))
    u = a + PolyMatrix.identity(n, a.row_weights)
    assert_matches(unipotent_inverse(u), oracle.unipotent_inverse(u))


G1 = irrep(1).gens()
G2 = irrep(half(3, 2)).gens()
COPRODUCT = coproduct_gens(G1, G2)
GENERATORS = (Generator.X, Generator.Y, Generator.H, Generator.EXP_HX,
              Generator.EXP_MHX)
PRODUCT_WEIGHTS = tuple(m1 + m2 for m1 in G1.weights for m2 in G2.weights)


def _coproduct(gen, weighted):
    m = COPRODUCT.of(gen)
    return PolyMatrix(m.entries, PRODUCT_WEIGHTS, PRODUCT_WEIGHTS) if weighted else m


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(GENERATORS), st.sampled_from(GENERATORS),
       st.booleans(), st.booleans())
def test_spin_one_by_three_halves_coproducts_match_oracle(ga, gb, wa, wb):
    a, b = _coproduct(ga, wa), _coproduct(gb, wb)
    assert_matches(a @ b, oracle.matmul(a, b))
    assert_matches(commutator(a, b), oracle.commutator(a, b))
    assert_matches(a - b, oracle.sub(a, b))
    assert_matches(a * Fraction(1, 2), oracle.scale(a, Fraction(1, 2)))
    assert_matches(kron(G1.of(ga), G2.of(gb)), oracle.kron(G1.of(ga), G2.of(gb)))


def test_sums_with_zero_return_the_operand_entries():
    a = irrep(1).x
    z = PolyMatrix.zeros(a.rows, a.cols)
    for s in (a + z, z + a, a - z):
        assert s == a
        assert all(p is q for rs, ra in zip(s.entries, a.entries)
                   for p, q in zip(rs, ra) if q)
