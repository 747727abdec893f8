"""The PolyMatrix kernel against the entrywise oracle in matrix_oracle.

Every kernel operation (``@``, ``kron``, ``+``, ``-``, unary ``-``, scalar
``*`` and ``/``, ``transpose``, ``submatrix``/``column``/``row``,
``divide_h``, ``lincomb``, and through them ``commutator``,
``exp_nilpotent`` and ``unipotent_inverse``) must give the matrix that HPoly arithmetic gives
entry by entry, in canonical form, with the same weight labels.  Its
graded storage must have a minimal denominator (so equal matrices in the
same bases hold the same storage), its canonical term form must be well
formed, and it must round-trip through the public constructor.  That holds
for both storages: graded matrices (one monomial per entry) built through
``_labelled`` from random labels and integer cores, the same matrices built
in other gauges per component, and matrices that keep only their entries
(every matrix the public constructor builds), in any mix.  Operands the
graded kernel cannot take go through the entrywise fallback, so the
properties with such operands test it against the oracle.
"""

import pickle
from contextlib import contextmanager
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

import matrix_oracle as oracle
from conftest import examples
from jordanian import polymatrix
from jordanian.coupling import alpha_table
from jordanian.halfint import half
from jordanian.hpoly import HPoly
from jordanian.irreps import Generator, coproduct_gens, irrep
from jordanian.polymatrix import (PolyMatrix, _bases, _msum, commutator,
                                  exp_nilpotent, kron, lincomb, unipotent_inverse)
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


def assert_storage(m):
    """Graded storage in interned bases with den minimal, or the entries
    alone, held from construction; a canonical term form of rows of
    (col, terms) in column order, terms sorted by (h-power, radicand) with
    nonzero int numerators, den minimal; the constructor rebuilds an equal
    matrix with the same canonical form from the HPoly view."""
    g = m._g
    if g is None:
        assert m._view.rows is not None
    else:
        assert all(polymatrix._BASES[b.labels] is b for b in (g.rb, g.cb))
        _assert_minimal(m)
    den, data = oracle.canonical_terms(m)
    assert type(den) is int and den >= 1
    assert isinstance(data, tuple) and len(data) == m.rows
    numerators = []
    for row in data:
        assert isinstance(row, tuple)
        cols = [c for c, _ in row]
        assert cols == sorted(set(cols)) and all(0 <= c < m.cols for c in cols)
        for _, terms in row:
            assert isinstance(terms, tuple) and terms
            keys = [(k, n) for k, n, _ in terms]
            assert keys == sorted(set(keys))
            for k, n, v in terms:
                assert type(v) is int and v and k >= 0
                assert squarefree_decompose(n) == (n, 1)
                numerators.append(v)
    assert gcd(den, *numerators) == 1  # so the zero matrix has den 1
    back = PolyMatrix(m.entries, m.row_weights, m.col_weights)
    assert back == m and hash(back) == hash(m)
    assert oracle.canonical_terms(back) == (den, data)


def assert_matches(result, expected):
    assert_storage(result)
    assert_canonical(result)
    assert result == expected
    assert result.row_weights == expected.row_weights
    assert result.col_weights == expected.col_weights
    assert str(result) == str(expected)


@examples(60)
@given(matrices())
def test_constructor_storage_is_minimal_and_round_trips(m):
    assert_storage(m)
    assert_canonical(m)


@examples(60)
@given(st.data())
def test_transpose_and_slices_match_oracle(data):
    a = data.draw(matrices())
    row_idx = data.draw(st.lists(st.integers(0, a.rows - 1), min_size=1, max_size=5))
    col_idx = data.draw(st.lists(st.integers(0, a.cols - 1), min_size=1, max_size=5))
    i = data.draw(st.integers(0, a.rows - 1))
    k = data.draw(st.integers(0, a.cols - 1))
    assert_matches(a.transpose(), oracle.transpose(a))
    assert_matches(a.submatrix(row_idx, col_idx),
                   oracle.submatrix(a, row_idx, col_idx))
    assert_matches(a.column(k), oracle.submatrix(a, range(a.rows), [k]))
    assert_matches(a.row(i), oracle.submatrix(a, [i], range(a.cols)))


@examples(60)
@given(matrices(), st.integers(0, 3), st.integers(0, 5))
def test_divide_h_matches_oracle(a, shift, k):
    shifted = a * HPoly.h(shift)
    assert_matches(shifted.divide_h(shift), a)
    try:
        expected = oracle.divide_h(a, k)
    except ValueError:
        with pytest.raises(ValueError, match="is not divisible by h"):
            a.divide_h(k)
    else:
        assert_matches(a.divide_h(k), expected)
    if not a.is_zero:
        with pytest.raises(ValueError, match="is not divisible by h"):
            shifted.divide_h(a.max_degree() + shift + 1)


def test_built_view_is_read_only_and_kept():
    m = irrep(1).x @ irrep(1).y
    view = m.entries
    assert m.entries is view
    with pytest.raises(AttributeError):
        m.entries = ()
    with pytest.raises(TypeError):
        m.entries[0] = ()
    with pytest.raises(TypeError):
        m.entries[0][1] = HPoly.zero()
    for name in ("den", "data", "_view"):
        with pytest.raises(AttributeError):
            setattr(m, name, None)
    with pytest.raises(AttributeError):
        m._view.rows = ()
    with pytest.raises(TypeError):
        m._view[0] = ()
    assert m.entries is view and m == irrep(1).x @ irrep(1).y
    # A memoized matrix and one sharing its storage keep one view.
    x = irrep(1).x
    shared = x + PolyMatrix.zeros(x.rows, x.cols)
    with pytest.raises(AttributeError):
        shared._view.rows = ()
    assert shared.entries is x.entries
    assert str(x) == str(PolyMatrix(x.entries))


@examples(60)
@given(st.data())
def test_matmul_matches_oracle(data):
    r, k, c = (data.draw(st.integers(1, 4)) for _ in range(3))
    a = data.draw(matrices(r, k))
    b = data.draw(matrices(k, c))
    assert_matches(a @ b, oracle.matmul(a, b))


@examples(60)
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


@examples(40)
@given(matrices(), matrices())
def test_kron_matches_oracle(a, b):
    assert_matches(kron(a, b), oracle.kron(a, b))


@examples(30)
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


@examples(20)
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


def _radicals(*terms):
    """The HPoly sum of q * sqrt(n) * h**k over (k, n, q)."""
    return sum((HPoly.h(k, RadScalar.of(q, n)) for k, n, q in terms),
               HPoly.zero())


def test_kron_of_colliding_multi_term_entries():
    # (sqrt2 + sqrt3)(sqrt3 + sqrt2) = 5 + 2 sqrt6: two of the four term
    # products land on radicand 1 and two on radicand 6.
    a = PolyMatrix([[_radicals((0, 2, 1), (0, 3, 1)), 0]])
    b = PolyMatrix([[_radicals((0, 3, 1), (0, 2, 1))], [HPoly.h(1)]])
    product = kron(a, b)
    assert oracle.canonical_terms(product)[1] == (
        ((0, ((0, 1, 5), (0, 6, 2))),), ((0, ((1, 2, 1), (1, 3, 1))),))
    assert_matches(product, oracle.kron(a, b))


@pytest.mark.parametrize("third, want", [
    (1, ((0, 2, 2), (1, 1, 1))),   # a second key, then the first again
    (-1, ((1, 1, 1),)),            # ... and then the first cancels
])
def test_matmul_entry_that_receives_a_second_term(third, want):
    # The products sqrt2, h, third*sqrt2 all reach entry (0, 0).
    a = PolyMatrix([[1, HPoly.h(1), third]])
    b = PolyMatrix([[RadScalar.sqrt(2)], [1], [RadScalar.sqrt(2)]])
    product = a @ b
    assert oracle.canonical_terms(product) == (1, (((0, want),),))
    assert_matches(product, oracle.matmul(a, b))


@pytest.mark.parametrize("a, b", [
    ([[Fraction(1, 2), Fraction(1, 2)]], [[RadScalar.sqrt(3)], [-RadScalar.sqrt(3)]]),
    ([[1, HPoly.h(1), -1, -HPoly.h(1)]],
     [[RadScalar.sqrt(2)], [Fraction(1, 3)], [RadScalar.sqrt(2)], [Fraction(1, 3)]]),
], ids=["single-term", "multi-term"])
def test_exact_cancellation_gives_the_zero_matrix(a, b):
    # The operands keep their entries, so the product and the difference
    # do too; a product by the scalar 0 is zeros, graded with den 1.  (A
    # graded result that cancels has den 1 and no entries as well: see
    # test_graded_denominators_are_minimal_and_equal_matrices_share_storage.)
    a, b = PolyMatrix(a), PolyMatrix(b)
    for zero, expected in ((a @ b, oracle.matmul(a, b)),
                           (b - b, oracle.sub(b, b)),
                           (b * 0, oracle.scale(b, 0))):
        assert zero.is_zero
        assert oracle.canonical_terms(zero) == (1, ((),) * zero.rows)
        assert_matches(zero, expected)
    assert (a @ b)._g is None and (b - b)._g is None
    zero = (b * 0)._g
    assert zero.den == 1 and not any(zero.rows)


SPIN_ONE = irrep(1)
TABLE = alpha_table(1, half(3, 2))
MODULE_MATRICES = {"Zp": SPIN_ONE.zp, "X": SPIN_ONE.x,
                   "e^{hX/2}": SPIN_ONE.exp_half_hx,
                   "e^{-hX/2}": SPIN_ONE.exp_mhalf_hx}
PAIR_MATRICES = {"K": TABLE.ket, "B": TABLE.bra, "C": TABLE.cgc}


def _single_term(m):
    return all(len(terms) == 1 for row in oracle.canonical_terms(m)[1]
               for _, terms in row)


@pytest.mark.parametrize("group", [MODULE_MATRICES, PAIR_MATRICES],
                         ids=["spin 1", "K B C of (1, 3/2)"])
def test_products_of_library_matrices_match_oracle(group):
    for a in group.values():
        assert _single_term(a)
        for b in group.values():
            assert_matches(a @ b, oracle.matmul(a, b))


def test_krons_of_library_matrices_match_oracle():
    other = irrep(half(3, 2))
    for a in MODULE_MATRICES.values():
        for b in (other.zp, other.x, other.exp_half_hx, other.exp_mhalf_hx):
            assert_matches(kron(a, b), oracle.kron(a, b))
    k, c = PAIR_MATRICES["K"], PAIR_MATRICES["C"]
    assert_matches(kron(SPIN_ONE.zp, c), oracle.kron(SPIN_ONE.zp, c))
    assert_matches(kron(k, SPIN_ONE.x), oracle.kron(k, SPIN_ONE.x))


# -- graded storage -------------------------------------------------------------

def _labels(draw, n, low, high):
    return [(draw(st.integers(low, high)), draw(st.sampled_from(RADICANDS)))
            for _ in range(n)]


def _from_core(rl, cl, den, core, row_weights=None, col_weights=None):
    """The matrix with entry v/den * sqrt(p_i / q_c) * h**(a_i - b_c) for
    row labels (a_i, p_i), column labels (b_c, q_c) and int core entries v,
    in graded storage over the bases of those labels, built by _labelled."""
    m = PolyMatrix._labelled(den, [{c: v for c, v in enumerate(row) if v}
                                   for row in core], rl, cl)
    assert (m._g.rb, m._g.cb) == (polymatrix._basis(rl), polymatrix._basis(cl))
    return m._relabeled(row_weights, col_weights)


def _core(draw, rows, cols):
    return [[draw(st.integers(-6, 6)) for _ in range(cols)] for _ in range(rows)]


def _graded_parts(draw, rows=None, cols=None, rl=None, cl=None):
    """Random row and column labels (offsets with a_i >= b_c), a random
    integer core, a denominator and weights: the arguments of _from_core."""
    rows = rows or draw(st.integers(1, 4))
    cols = cols or draw(st.integers(1, 4))
    return (rl or _labels(draw, rows, 2, 4), cl or _labels(draw, cols, 0, 2),
            draw(st.sampled_from(DENOMINATORS)), _core(draw, rows, cols),
            draw(_weight_choices(rows)), draw(_weight_choices(cols)))


@st.composite
def graded_matrices(draw, rows=None, cols=None, rl=None, cl=None):
    """Labels times an integer core, in the bases of the labels."""
    m = _from_core(*_graded_parts(draw, rows, cols, rl, cl))
    assert m._g is not None
    return m


def _components(core):
    """The component of each row and each column (rows first) of the
    nonzero pattern of core; an empty row or column is its own."""
    rows, cols = len(core), len(core[0])
    parent = list(range(rows + cols))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x
    for i, row in enumerate(core):
        for c, v in enumerate(row):
            if v:
                parent[find(rows + c)] = find(i)
    return [find(x) for x in range(rows + cols)]


def _regauged(draw, parts):
    """The matrix of _from_core(*parts) with the labels of each component
    moved by a random gauge (d, r): (a, p) -> (a + d, sqfree(p r)) on both
    sides, and each core entry times gcd(p, r) / gcd(q, r) over den times
    L, the lcm of the gcd(q, r), so that the entries stay the same; then
    built over the bases of the moved labels."""
    rl, cl, den, core, rw, cw = parts
    comps = _components(core)
    gauges = {u: (draw(st.integers(-3, 3)), draw(st.sampled_from(RADICANDS)))
              for u in set(comps)}

    def move(labels, offset):
        return [(a + gauges[comps[offset + i]][0],
                 polymatrix._sf(p, gauges[comps[offset + i]][1]))
                for i, (a, p) in enumerate(labels)]
    r = [gauges[u][1] for u in comps]
    cg = [gcd(q, r[len(rl) + c]) for c, (_, q) in enumerate(cl)]
    big = lcm(*cg)
    moved_core = [[v * gcd(p, r[i]) * (big // f) for v, f in zip(row, cg)]
                  for i, (row, (_, p)) in enumerate(zip(core, rl))]
    moved = _from_core(move(rl, 0), move(cl, len(rl)), den * big, moved_core, rw, cw)
    m = _from_core(*parts)
    assert moved == m and hash(moved) == hash(m)
    assert oracle.canonical_terms(moved) == oracle.canonical_terms(m)
    assert moved._g is not None
    return moved


@st.composite
def operands(draw, rows=None, cols=None):
    """A graded matrix, the same regauged, or any matrices() draw."""
    rows = rows or draw(st.integers(1, 4))
    cols = cols or draw(st.integers(1, 4))
    kind = draw(st.sampled_from(("graded", "regauged", "any")))
    if kind == "any":
        return draw(matrices(rows, cols))
    parts = _graded_parts(draw, rows, cols)
    return _regauged(draw, parts) if kind == "regauged" else _from_core(*parts)


@examples(60)
@given(st.data())
def test_graded_products_and_krons_match_oracle(data):
    r, k, c = (data.draw(st.integers(1, 4)) for _ in range(3))
    a, b = data.draw(operands(r, k)), data.draw(operands(k, c))
    assert_matches(a @ b, oracle.matmul(a, b))
    assert_matches(kron(a, b), oracle.kron(a, b))


@examples(60)
@given(st.data())
def test_graded_entrywise_ops_and_slices_match_oracle(data):
    a = data.draw(operands())
    b = data.draw(operands(a.rows, a.cols))
    assert_matches(a + b, oracle.add(a, b))
    assert_matches(a - b, oracle.sub(a, b))
    assert_matches(-a, oracle.neg(a))
    for s in (data.draw(entries), data.draw(single_terms), Fraction(-2, 3)):
        assert_matches(a * s, oracle.scale(a, s))
    row_idx = data.draw(st.lists(st.integers(0, a.rows - 1), min_size=1, max_size=5))
    col_idx = data.draw(st.lists(st.integers(0, a.cols - 1), min_size=1, max_size=5))
    assert_matches(a.transpose(), oracle.transpose(a))
    assert_matches(a.submatrix(row_idx, col_idx), oracle.submatrix(a, row_idx, col_idx))
    assert_matches(a.column(col_idx[0]), oracle.submatrix(a, range(a.rows), col_idx[:1]))
    assert_matches(a.row(row_idx[0]), oracle.submatrix(a, row_idx[:1], range(a.cols)))


def _fresh(m):
    """m on its own storage with a view of its own, not yet built."""
    return PolyMatrix._wrap(m.rows, m.cols, m._g, m.row_weights, m.col_weights)


@examples(60)
@given(st.data())
def test_entry_reads_graded_storage_as_the_view_does(data):
    # Every (i, k), negative ones too: entry() of graded storage is the
    # value the labels and core give, and the very object the view holds,
    # and reading it builds no view.  A matrix that is not graded reads
    # the entries it holds.
    kind = data.draw(st.sampled_from(("graded", "regauged", "term")))
    parts = _graded_parts(data.draw)
    rl, cl, den, core = parts[:4]
    if kind == "term":
        m = data.draw(matrices(len(rl), len(cl)))
        expected = m.entries
    else:
        m = _regauged(data.draw, parts) if kind == "regauged" else _from_core(*parts)
        m = _fresh(m)
        expected = [[HPoly.h(a - b, RadScalar.of(Fraction(v, den * q), p * q))
                     if v else HPoly.zero() for v, (b, q) in zip(row, cl)]
                    for row, (a, p) in zip(core, rl)]
    cells = [(i, k) for i in range(-m.rows, m.rows) for k in range(-m.cols, m.cols)]
    read = {(i, k): m.entry(i, k) for i, k in cells}
    if kind != "term":
        assert m._view.rows is None
    for (i, k), p in read.items():
        assert p == expected[i][k]
        assert p is m.entries[i][k]
    for i, k in ((m.rows, 0), (-m.rows - 1, 0), (0, m.cols), (0, -m.cols - 1)):
        with pytest.raises(IndexError):
            m.entry(i, k)


@examples(60)
@given(st.data())
def test_mismatched_gauges_fall_back_to_entries(data):
    # A and B share the inner labels (A @ B) or all labels (A + B); each is
    # then moved to its own gauge per component.  Operands whose bases then
    # differ take the entrywise fallback, whose result keeps its entries;
    # either way it is the oracle's result.
    r, k, c = (data.draw(st.integers(1, 4)) for _ in range(3))
    outer, inner = _labels(data.draw, r, 2, 4), _labels(data.draw, k, 0, 2)
    pa = _graded_parts(data.draw, r, k, outer, inner)
    pb = _graded_parts(data.draw, k, c, rl=[(x + 2, p) for x, p in inner])
    a, b = _from_core(*pa), _from_core(*pb)
    a2, b2 = _regauged(data.draw, pa), _regauged(data.draw, pb)
    with _fallback_calls() as calls:
        product = a2 @ b2
    assert bool(calls) == (a2._g.cb is not b2._g.rb) == (product._g is None)
    assert_matches(product, oracle.matmul(a, b))
    ps = _graded_parts(data.draw, r, k, outer, inner)
    same, same2 = _from_core(*ps), _regauged(data.draw, ps)
    with _fallback_calls() as calls:
        total = a2 + same2
    assert bool(calls) == (not a2.is_zero and not same2.is_zero and (
        _bases(a2) != _bases(same2) or a2._g.shift != same2._g.shift
        or a2._g.rad != same2._g.rad)) == (total._g is None)
    assert_matches(total, oracle.add(a, same))


# -- the basis kernel ------------------------------------------------------------

@contextmanager
def _fallback_calls(name="_entrywise"):
    """One item per call of the entrywise fallback (or of the polymatrix
    function of that name) while the block runs."""
    calls = []
    fallback = getattr(polymatrix, name)

    def counted(*args):
        calls.append(args[:2])
        return fallback(*args)
    setattr(polymatrix, name, counted)
    try:
        yield calls
    finally:
        setattr(polymatrix, name, fallback)


def _moved(labels, d, r):
    """Every label moved by one gauge (d, r): the same basis."""
    return [(a + d, polymatrix._sf(p, r)) for a, p in labels]


@examples(60)
@given(st.data())
def test_matching_bases_take_the_basis_kernel(data):
    # A (r x k) and B (k x c) over random labels; B's row labels are A's
    # column labels moved by one gauge, so B's row basis is A's column
    # basis under another constant.  A2 has A's labels moved by one gauge
    # on both sides: the same bases and constant.  Every operation below
    # stays on integer storage, keeps the bases the rules give, and agrees
    # with the oracle; a sum of two constants falls back and still agrees.
    r, k, c = (data.draw(st.integers(1, 4)) for _ in range(3))
    rl, kl = _labels(data.draw, r, 4, 6), _labels(data.draw, k, 2, 4)
    d, rad = data.draw(st.integers(0, 2)), data.draw(st.sampled_from(RADICANDS))
    a = data.draw(graded_matrices(r, k, rl, kl))
    b = data.draw(graded_matrices(k, c, _moved(kl, d, rad)))
    e, rad2 = data.draw(st.integers(-2, 2)), data.draw(st.sampled_from(RADICANDS))
    a2 = data.draw(graded_matrices(r, k, _moved(rl, e, rad2), _moved(kl, e, rad2)))
    ga, gb = a._g, b._g
    assert ga.cb is gb.rb and _bases(a2) == _bases(a)
    row_idx = data.draw(st.lists(st.integers(0, r - 1), min_size=1, max_size=5))
    col_idx = data.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=5))
    s = data.draw(single_terms)
    with _fallback_calls() as calls:
        product, total, diff = a @ b, a + a2, a - a2
        same = a == a2
        kr, t, scaled = kron(a, b), a.transpose(), a * s
        sub = a.submatrix(row_idx, col_idx)
        col, row = a.column(col_idx[0]), a.row(row_idx[0])
    assert calls == []
    assert _bases(product) == (ga.rb, gb.cb) and _bases(total) == _bases(a)
    assert (product._g.shift, product._g.rad) == (
        ga.shift + gb.shift, polymatrix._sf(ga.rad, gb.rad))
    assert _bases(t) == (polymatrix._dual(ga.cb), polymatrix._dual(ga.rb))
    assert same == (oracle.sub(a, a2).is_zero)
    assert_matches(product, oracle.matmul(a, b))
    assert_matches(total, oracle.add(a, a2))
    assert_matches(diff, oracle.sub(a, a2))
    assert_matches(kr, oracle.kron(a, b))
    assert_matches(t, oracle.transpose(a))
    assert_matches(scaled, oracle.scale(a, HPoly.constant(s)))
    assert_matches(sub, oracle.submatrix(a, row_idx, col_idx))
    assert_matches(col, oracle.submatrix(a, range(r), col_idx[:1]))
    assert_matches(row, oracle.submatrix(a, row_idx[:1], range(k)))
    # The same bases under another constant: the fallback, by value.
    shifted = a * HPoly.h(1)
    assert _bases(shifted) == _bases(a)
    assert (a == shifted) == a.is_zero
    assert_matches(a + shifted, oracle.add(a, shifted))


def _storage_fields(m):
    """The interned bases, den, rows and constant of graded m, else its
    entries."""
    g = m._g
    if g is None:
        return m.entries
    assert all(polymatrix._BASES[b.labels] is b for b in (g.rb, g.cb))
    return g.rb, g.cb, g.den, g.rows, g.shift, g.rad


def _assert_minimal(m):
    """Graded storage, if any, with gcd(den, numerators) = 1."""
    g = m._g
    if g is not None:
        assert gcd(g.den, *(v for row in g.rows for v in row.values())) == 1


@examples(60)
@given(st.data())
def test_graded_denominators_are_minimal_and_equal_matrices_share_storage(data):
    # Every graded result keeps its denominator minimal, so two graded
    # matrices that compare equal in the same bases hold the same den,
    # rows and constant, reached by whatever path.  An all-zero matrix has
    # den 1 and no entries, and its constant carries no value (== ignores
    # it), so the constant is compared for nonzero matrices only.
    r, k, c = (data.draw(st.integers(1, 4)) for _ in range(3))
    a, b = data.draw(operands(r, k)), data.draw(operands(k, c))
    a2 = data.draw(operands(r, k))
    s, shift = data.draw(single_terms), data.draw(st.integers(0, 3))
    row_idx = data.draw(st.lists(st.integers(-r, r - 1), min_size=1, max_size=5))
    col_idx = data.draw(st.lists(st.integers(-k, k - 1), min_size=1, max_size=5))
    raised = a * HPoly.h(shift)
    for m in (a @ b, a + a2, a - a2, kron(a, b), a * s, a / s, a * Fraction(-2, 3),
              a / 3, raised, a.transpose(), a.submatrix(row_idx, col_idx),
              a.column(col_idx[0]), a.row(row_idx[0]), raised.divide_h(shift)):
        _assert_minimal(m)
    for x, y in ((a, a * s / s), (a, a * Fraction(6, 5) / 6 * 5),
                 (a, (a + a2) - a2), (a, raised.divide_h(shift)),
                 (a, a.transpose().transpose()), (a, a.submatrix(range(r), range(k)))):
        assert x == y
        if x._g is not None and y._g is not None and _bases(x) == _bases(y):
            gx, gy = x._g, y._g
            assert (gx.den, gx.rows) == (gy.den, gy.rows)
            if not x.is_zero:
                assert (gx.shift, gx.rad) == (gy.shift, gy.rad)


def test_column_is_the_one_column_submatrix_in_both_storages():
    graded = irrep(1).zp
    term = PolyMatrix([[RadScalar.sqrt(2) + RadScalar.sqrt(3), 1], [0, HPoly.h(1)]],
                      (half(1, 2), half(-1, 2)), (half(1, 2), half(-1, 2)))
    assert graded._g is not None and term._g is None
    for m in (graded, term):
        for k in range(-m.cols, m.cols):
            col, sub = m.column(k), m.submatrix(range(m.rows), [k])
            assert col.entries == sub.entries == tuple(
                (row[k],) for row in m.entries)
            assert col.row_weights == m.row_weights
            assert col.col_weights == (m.col_weights[k],)
            assert _bases(col) == _bases(sub)
        for k in (m.cols, -m.cols - 1):
            with pytest.raises(IndexError):
                m.column(k)


def test_two_radicands_in_one_entry_keep_term_storage():
    # The public constructor keeps the entries it is given: an entry with
    # two radicands, an h-power pattern that no labels fit, and one that
    # labels fit alike; so do their products and sums.  Each computes with
    # the same matrix built graded from its labels.
    two = PolyMatrix([[RadScalar.sqrt(2) + RadScalar.sqrt(3)]])
    unfit = PolyMatrix([[1, HPoly.h(1)], [1, 1]])
    entries = PolyMatrix([[1, HPoly.h(1)], [HPoly.h(1), HPoly.h(2)]])
    graded = PolyMatrix._labelled(1, [{0: 1, 1: 1}] * 2, [(0, 1), (1, 1)],
                                  [(0, 1), (-1, 1)])
    assert two._g is None and unfit._g is None and entries._g is None
    assert graded == entries and hash(graded) == hash(entries)
    assert (entries @ entries)._g is None and (entries + entries)._g is None
    for a in (two, unfit, graded):
        b = unfit if a.rows == 2 else two
        assert_matches(a @ b if a.cols == b.rows else a @ a,
                       oracle.matmul(a, b) if a.cols == b.rows else oracle.matmul(a, a))
    assert_matches(graded + unfit, oracle.add(graded, unfit))
    assert_matches(kron(two, graded), oracle.kron(two, graded))


# -- one value, three storages ---------------------------------------------------

def _other_bases(draw, m):
    """The labels of graded m with each component of its nonzero pattern
    moved by a random gauge (d, r), (a, p) -> (a + d, sqfree(p r)) on both
    sides: bases that m's entries fit, in general not m's own."""
    g = m._g
    comps = _components([[c in row for c in range(m.cols)] for row in g.rows])
    gauges = {u: (draw(st.integers(-3, 3)), draw(st.sampled_from(RADICANDS)))
              for u in set(comps)}
    moved = [(a + gauges[u][0], polymatrix._sf(p, gauges[u][1]))
             for (a, p), u in zip(g.rb.labels + g.cb.labels, comps)]
    return moved[:m.rows], moved[m.rows:]


@examples(60)
@given(st.data())
def test_one_value_in_three_storages(data):
    # A matrices() draw, or a graded one, in three forms: graded in the
    # bases of its labels, graded in other bases that its entries fit (each
    # component of its nonzero pattern in another gauge, rows rebuilt by
    # the reference fit), and its entries alone, the only form of a draw
    # with an entry of two terms.  All are one value, and so is each one's
    # pickle round trip, which keeps its storage.
    m = data.draw(st.one_of(matrices(), graded_matrices()))
    forms = [m] if m._g is not None else []
    if forms:
        rl, cl = _other_bases(data.draw, m)
        moved = oracle.fit(m, polymatrix._basis(rl), polymatrix._basis(cl))
        assert _bases(moved) == (polymatrix._basis(rl), polymatrix._basis(cl))
        forms.append(moved)
    alone = PolyMatrix(m.entries, m.row_weights, m.col_weights)
    assert alone._g is None
    forms.append(alone)
    for x in forms:
        back = pickle.loads(pickle.dumps(x))
        assert back.row_weights == x.row_weights and back.col_weights == x.col_weights
        assert _storage_fields(back) == _storage_fields(x)
        for y in forms + [back]:
            assert x == y and hash(x) == hash(y)
            assert x.max_degree() == y.max_degree() and str(x) == str(y)


def test_pickling_keeps_the_storage_of_library_matrices():
    # A graded matrix comes back in the same interned bases with the same
    # den, rows, constant and weights: a transpose in the dual bases too.
    zp = SPIN_ONE.zp
    for m in (*MODULE_MATRICES.values(), *PAIR_MATRICES.values(), zp.transpose(),
              TABLE.coupled, TABLE.coupled_bras, PolyMatrix.identity(3),
              PolyMatrix.zeros(2, 5), kron(zp, PAIR_MATRICES["C"])):
        back = pickle.loads(pickle.dumps(m))
        assert back == m and hash(back) == hash(m)
        assert back.row_weights == m.row_weights and back.col_weights == m.col_weights
        assert m._g is not None and _storage_fields(back) == _storage_fields(m)
    t = zp.transpose()._g
    assert (t.rb, t.cb) == (polymatrix._dual(zp._g.cb), polymatrix._dual(zp._g.rb))


# -- sums of products in one pass ----------------------------------------------

def _scalar(draw, k, n):
    """q sqrt(n) h**k for a random rational q, 0 included: an int or a
    Fraction when it is rational (some of the time), else an HPoly."""
    q = Fraction(draw(st.integers(-4, 4)), draw(st.sampled_from(DENOMINATORS)))
    if (k, n) == (0, 1) and draw(st.booleans()):
        return int(q) if q.denominator == 1 else q
    return HPoly.h(k, RadScalar.of(q, n))


def _terms_of_one_kernel(draw):
    """Terms (c, A) and (c, A, B) whose operands share one pair of outer
    bases and whose scalars are q sqrt(n) h**k for one (k, n), so every
    term with c != 0 has one constant; some operands all zero, and some
    draws repeat the terms with negated scalars, for an all-zero sum."""
    r, inner, c = (draw(st.integers(1, 3)) for _ in range(3))
    rl, kl, cl = (_labels(draw, r, 4, 6), _labels(draw, inner, 2, 4),
                  _labels(draw, c, 0, 2))
    k, n = draw(st.integers(0, 2)), draw(st.sampled_from(RADICANDS))

    def operand(row_labels, col_labels):
        m = draw(graded_matrices(len(row_labels), len(col_labels),
                                 row_labels, col_labels))
        if draw(st.integers(0, 5)):
            return m
        zero = PolyMatrix._labelled(1, [{}] * m.rows, row_labels, col_labels)
        return zero._relabeled(m.row_weights, m.col_weights)
    terms = [(_scalar(draw, k, n), operand(rl, kl), operand(kl, cl))
             if draw(st.booleans()) else (_scalar(draw, k, n), operand(rl, cl))
             for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        terms += [(-s, *ops) for s, *ops in terms]
    return terms, (r, c, rl, cl, k, n)


def _kernel_takes(terms, total):
    """Whether the terms meet the graded kernel's conditions, read off the
    operands and the operators' values: every scalar of one term, every
    operand graded, each product's inner bases matching, one pair of outer
    bases, one constant over the terms that add (c != 0, no all-zero
    operand; there is one), and not an all-zero sum whose first term does
    not add."""
    if any(isinstance(s, HPoly) and sum(len(r.terms) for r in s.coeffs) > 1
           for s, *_ in terms):
        return False
    ops = [tuple(ms) for _, *ms in terms]
    if any(m._g is None for ms in ops for m in ms) or any(
            len(ms) == 2 and ms[0]._g.cb is not ms[1]._g.rb for ms in ops):
        return False
    adds = [bool(s) and not any(m.is_zero for m in ms) for s, *ms in terms]
    consts = {(v._g.shift, v._g.rad) for v in (
        (a @ b[0] if b else a) * s for (s, a, *b), add in zip(terms, adds) if add)}
    return (len({(ms[0]._g.rb, ms[-1]._g.cb) for ms in ops}) == 1
            and len(consts) == 1 and not (total.is_zero and not adds[0]))


def _oracle_sum(terms):
    total = None
    for s, a, *b in terms:
        m = oracle.scale(oracle.matmul(a, b[0]) if b else a, s)
        total = m if total is None else oracle.add(total, m)
    return total


@examples(60)
@given(st.data())
def test_lincomb_matches_the_operators_and_the_oracle(data):
    # lincomb's terms on one graded kernel, or with one term moved off it:
    # an operand kept as its entries, a term in other bases, a scalar of
    # another h-power or radical, or one of two terms.  lincomb takes the
    # operators exactly when the kernel's conditions fail, and either way
    # gives the operators' storage field by field (den, rows, bases,
    # constant) and weights, and the oracle's matrix.
    terms, (r, c, rl, cl, k, n) = _terms_of_one_kernel(data.draw)
    kind = data.draw(st.sampled_from(
        ("kernel", "entries", "bases", "constant", "two terms")))
    i = data.draw(st.integers(0, len(terms) - 1))
    s, *ops = terms[i]
    if kind == "entries":
        at = data.draw(st.integers(0, len(ops) - 1))
        m = ops[at]
        ops[at] = PolyMatrix(m.entries, m.row_weights, m.col_weights)
    elif kind == "bases":
        ops = [data.draw(graded_matrices(r, c, _labels(data.draw, r, 4, 6),
                                         _labels(data.draw, c, 0, 2)))]
    elif kind == "constant":
        s = _scalar(data.draw, data.draw(st.integers(0, 2)),
                    data.draw(st.sampled_from(RADICANDS)))
    elif kind == "two terms":
        s = HPoly.h(k, RadScalar.of(1, n)) + HPoly.h(k + 1)
    terms[i] = (s, *ops)
    expected = _msum((a @ b[0] if b else a) * s for s, a, *b in terms)
    with _fallback_calls("_msum") as calls:
        total = lincomb(terms)
    assert bool(calls) != _kernel_takes(terms, expected)
    if kind in ("entries", "two terms"):
        assert calls
    assert _storage_fields(total) == _storage_fields(expected)
    assert (total.row_weights, total.col_weights) == (
        expected.row_weights, expected.col_weights)
    assert_matches(total, _oracle_sum(terms))


def test_lincomb_keeps_the_zeros_of_a_first_term_that_adds_nothing():
    # A first term with c = 0 is the operators' result while every partial
    # sum stays zero, here because the next product cancels inside itself
    # in another constant; lincomb gives the same zeros, not that constant.
    one = [(0, 1)]
    m = PolyMatrix._labelled(1, [{0: 5}], one, one)
    p = PolyMatrix._labelled(1, [{0: 1, 1: 1}], one, one * 2)
    n = PolyMatrix._labelled(1, [{0: 1}, {0: -1}], one * 2, one)
    terms = [(0, m), (HPoly.h(1), p, n)]
    expected = _msum((a @ b[0] if b else a) * s for s, a, *b in terms)
    assert (expected._g.shift, expected.is_zero) == (0, True)
    assert _storage_fields(lincomb(terms)) == _storage_fields(expected)
