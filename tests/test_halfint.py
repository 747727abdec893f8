"""Half-integer labels: arithmetic, ordering, weight bookkeeping, and the
one memo per spin of every spin-keyed construction."""

import copy
import itertools
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import examples
from jordanian import coupling
from jordanian.coupling import (alpha_table, cgc_matrix, coupled_labels,
                                product_label_texts, product_labels)
from jordanian.halfint import (HalfInt, as_half, casimir_eigenvalue, dim_of,
                               half, weight_index, weight_range, weight_texts)
from jordanian.irreps import casimir_matrix, irrep, sl2_irrep
from jordanian.tensorops import (boson_lowering_family, boson_raising_family,
                                 identity_family, rank1_generators)

twices = st.integers(min_value=-40, max_value=40)


def test_construction_equivalences():
    assert HalfInt(2) == HalfInt.from_twice(4)
    assert HalfInt(Fraction(3, 2)) == half(3, 2)
    assert HalfInt.parse("3/2") == half(3, 2)
    assert HalfInt.parse("-2") == HalfInt(-2)
    assert HalfInt.parse(" 1.5 ") == half(3, 2)
    assert as_half("5/2") == half(5, 2)
    assert as_half(half(5, 2)) is not None


def test_rejects_non_half_integers():
    with pytest.raises(ValueError):
        HalfInt(Fraction(1, 3))
    with pytest.raises(ValueError):
        half(1, 3)


def test_arithmetic_and_ordering():
    assert half(1, 2) + half(1, 2) == HalfInt(1)
    assert half(3, 2) - 2 == half(-1, 2)
    assert -half(1, 2) == half(-1, 2)
    assert abs(half(-3, 2)) == half(3, 2)
    assert half(1, 2) < 1 < half(3, 2)
    assert sorted([HalfInt(1), half(1, 2), HalfInt(0)])[0] == HalfInt(0)


def test_hash_agrees_with_integers():
    # Integer-valued labels must be usable interchangeably with ints as
    # dictionary keys.
    d = {HalfInt(1): "a"}
    assert d[1] == "a"
    assert hash(half(1, 2)) == hash(Fraction(1, 2))


def test_str_forms():
    assert str(half(3, 2)) == "3/2"
    assert str(HalfInt(-2)) == "-2"
    assert str(half(-1, 2)) == "-1/2"


def test_integer_views():
    assert half(4, 2).as_int() == 2
    assert HalfInt(3).is_integer
    assert not half(1, 2).is_integer
    with pytest.raises(ValueError):
        half(1, 2).as_int()


def test_weight_bookkeeping():
    assert dim_of(half(3, 2)) == 4
    assert weight_range(HalfInt(1)) == (HalfInt(1), HalfInt(0), HalfInt(-1))
    ws = weight_range(half(3, 2))
    assert ws[0] == half(3, 2) and ws[-1] == half(-3, 2)
    for i, m in enumerate(ws):
        assert weight_index(half(3, 2), m) == i
    with pytest.raises(ValueError):
        dim_of(half(-1, 2))
    with pytest.raises(ValueError):
        weight_index(HalfInt(1), half(1, 2))  # wrong parity
    with pytest.raises(ValueError):
        weight_index(HalfInt(1), HalfInt(2))  # out of range


def test_weight_range_rejects_negative_spins():
    for j in (half(-1, 2), HalfInt(-1)):
        with pytest.raises(ValueError, match="spin label must be nonnegative"):
            weight_range(j)


def test_casimir_eigenvalue_values():
    assert casimir_eigenvalue(HalfInt(0)) == 0
    assert casimir_eigenvalue(half(1, 2)) == Fraction(3, 4)
    assert casimir_eigenvalue(HalfInt(1)) == 2
    assert casimir_eigenvalue(half(3, 2)) == Fraction(15, 4)


@given(twices, twices)
def test_addition_matches_fractions(a, b):
    x, y = HalfInt.from_twice(a), HalfInt.from_twice(b)
    assert (x + y).as_fraction() == x.as_fraction() + y.as_fraction()
    assert (x - y).as_fraction() == x.as_fraction() - y.as_fraction()


@given(twices, twices)
def test_ordering_matches_fractions(a, b):
    x, y = HalfInt.from_twice(a), HalfInt.from_twice(b)
    assert (x < y) == (x.as_fraction() < y.as_fraction())
    assert (x == y) == (a == b)


@given(twices)
def test_weight_index_roundtrip(t):
    j = HalfInt.from_twice(abs(t))
    for m in weight_range(j):
        idx = weight_index(j, m)
        assert weight_range(j)[idx] == m


# -- immutability and hashing --------------------------------------------------


def test_halfint_refuses_mutation():
    x = half(3, 2)
    with pytest.raises(AttributeError, match="immutable"):
        x.twice = 7
    with pytest.raises(AttributeError, match="immutable"):
        del x.twice
    with pytest.raises(AttributeError):
        x.label = "m"
    assert x == half(3, 2) and x.twice == 3


def test_memoized_weights_refuse_mutation():
    from jordanian.irreps import irrep

    weights = irrep(1).weights
    with pytest.raises(AttributeError, match="immutable"):
        weights[0].twice = 7
    assert irrep(1).weights == (HalfInt(1), HalfInt(0), HalfInt(-1))
    assert weight_range(HalfInt(1)) is weight_range(half(2, 2))


@given(twices)
def test_pickle_and_copy_keep_the_value(t):
    x = HalfInt.from_twice(t)
    for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(y) is HalfInt and y.twice == t and y == x
        assert hash(y) == hash(x)
        with pytest.raises(AttributeError):
            y.twice = t + 1


def test_pickled_matrix_keeps_its_weight_tuples():
    from jordanian.irreps import irrep

    y = irrep(half(3, 2)).y
    back = pickle.loads(pickle.dumps(y))
    assert back == y
    assert back.row_weights == y.row_weights == weight_range(half(3, 2))
    assert all(type(w) is HalfInt for w in back.row_weights + back.col_weights)


@given(st.integers(min_value=-10**30, max_value=10**30)
       | st.sampled_from([-1, -2, -3, 2**61 - 1, 2**61, 2**62 + 1, -2**64 - 1]))
def test_hash_equals_the_fraction_hash(t):
    x = HalfInt.from_twice(t)
    q = Fraction(t, 2)
    assert hash(x) == hash(q)
    assert x == q and q == x
    if t % 2 == 0:
        assert hash(x) == hash(t // 2) and x == t // 2
    # int, Fraction and HalfInt keys find each other's entries.
    for key, other in ((x, q), (q, x)):
        assert {key: "v"}[other] == "v"
    if t % 2 == 0:
        assert {t // 2: "v"}[x] == "v" and {x: "v"}[t // 2] == "v"
    assert len({x, q, HalfInt.from_twice(t)}) == 1


def test_equality_with_other_types():
    assert half(1, 2) != "1/2"
    assert half(1, 2) != None  # noqa: E711
    assert HalfInt(2) == 2 and HalfInt(2) != half(3, 2)


# -- one memo per spin -----------------------------------------------------------

# Every spin-memoized construction, by the number of spins it takes.
ONE_SPIN = (sl2_irrep, irrep, casimir_matrix, weight_range, weight_texts,
            boson_raising_family, boson_lowering_family, identity_family,
            rank1_generators)
TWO_SPINS = (product_labels, product_label_texts, alpha_table, cgc_matrix,
             coupled_labels, coupling._coupled_positions,
             coupling._certified_decomposition)


def spellings(twice):
    """The spin twice/2 as a Fraction, a HalfInt, an int where it is
    integral, and as text: '3/2' or '2', padded, and decimal ('1.5')."""
    q = Fraction(twice, 2)
    ints = [twice // 2] if twice % 2 == 0 else []
    return [q, HalfInt.from_twice(twice), *ints, str(q), f"  {q} ",
            str(float(q))]


@examples(100)
@given(st.integers(0, 7), st.integers(0, 5), st.integers(0, 5), st.randoms())
def test_every_spelling_of_a_spin_reads_one_memo(t, t1, t2, rnd):
    # Spins 0..7/2, pairs up to 5/2; the spellings are called in a random
    # order, so any of them may be the one that builds.
    cases = ([(memo, (t,)) for memo in ONE_SPIN]
             + [(memo, (t1, t2)) for memo in TWO_SPINS])
    for memo, twices in cases:
        if memo is boson_lowering_family and t == 0:
            continue  # refused (test_a_refused_build_keeps_nothing)
        calls = list(itertools.product(*map(spellings, twices)))
        rnd.shuffle(calls)
        first = memo(*calls[0])
        assert all(memo(*spins) is first for spins in calls), memo.__name__
        assert memo.built[twices] is first


def test_a_refused_build_keeps_nothing():
    # coupled_labels of a negative spin is empty by design, so that
    # coupled_index names the absent vector: it refuses nothing.
    refused = ([(memo, spins) for memo in ONE_SPIN
                for spins in (("-1/2",), (-1,))]
               + [(boson_lowering_family, (0,))]
               + [(memo, spins) for memo in TWO_SPINS
                  if memo not in (coupled_labels, coupling._coupled_positions)
                  for spins in ((Fraction(-1, 2), 1), (half(1, 2), " -1"))])
    for memo, spins in refused:
        key = tuple(as_half(j).twice for j in spins)
        errors = []
        for _ in range(2):
            with pytest.raises(ValueError) as excinfo:
                memo(*spins)
            errors.append((type(excinfo.value), str(excinfo.value)))
            assert key not in memo.built, (memo.__name__, spins)
        assert errors[0] == errors[1], (memo.__name__, spins)
