"""Exact scalars built from rationals and square roots of integers."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanian.radical import (RadScalar, as_rad, falling_binomial,
                               sqrt_factorial_ratio, squarefree_decompose)


def brute_squarefree(n: int) -> tuple[int, int]:
    # n = s * f**2 with s squarefree: strip square prime factors upward.
    f, d = 1, 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
            f *= d
        d += 1
    return n, f


@given(st.integers(min_value=1, max_value=5000))
def test_squarefree_decompose_matches_brute_force(n):
    s, f = squarefree_decompose(n)
    assert s * f * f == n
    assert (s, f) == brute_squarefree(n)


def test_squarefree_decompose_large_square():
    big = (10**9 + 7) ** 2
    assert squarefree_decompose(big) == (1, 10**9 + 7)


def test_sqrt_normalization():
    assert RadScalar.sqrt(8) == RadScalar.of(Fraction(2), 2)
    assert RadScalar.sqrt(9) == RadScalar.from_rational(3)
    assert RadScalar.sqrt(1) == RadScalar.one()
    assert RadScalar.sqrt(0) == RadScalar.zero()


def test_product_of_roots_uses_common_factor():
    # sqrt(6) * sqrt(10) = 2 sqrt(15)
    assert RadScalar.sqrt(6) * RadScalar.sqrt(10) == RadScalar.of(2, 15)
    # sqrt(2) * sqrt(2) = 2
    assert RadScalar.sqrt(2) * RadScalar.sqrt(2) == RadScalar.from_rational(2)


def test_squares_are_rational():
    for n in (2, 3, 5, 6, 30, 210):
        sq = RadScalar.sqrt(n) * RadScalar.sqrt(n)
        assert sq.is_rational and sq.as_fraction() == n


rationals = st.builds(
    Fraction,
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=1, max_value=7),
)
radicands = st.sampled_from([1, 2, 3, 5, 6, 7, 10])


@st.composite
def scalars(draw):
    n_terms = draw(st.integers(min_value=0, max_value=3))
    x = RadScalar.zero()
    for _ in range(n_terms):
        q = draw(rationals)
        n = draw(radicands)
        x = x + RadScalar.of(q, n)
    return x


@settings(max_examples=60)
@given(scalars(), scalars(), scalars())
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + RadScalar.zero() == a
    assert a * RadScalar.one() == a
    assert a - a == RadScalar.zero()


@settings(max_examples=40)
@given(scalars())
def test_float_value_consistency(a):
    # The canonical form must preserve the numerical value.
    direct = sum(float(q) * math.sqrt(n) for n, q in a.terms.items())
    rebuilt = sum(float(q) * math.sqrt(n) for q, n in a.sorted_terms())
    assert math.isclose(direct, rebuilt, rel_tol=1e-12, abs_tol=1e-12)


def test_single_term_inverse():
    x = RadScalar.of(Fraction(3, 4), 5)
    assert x * x.inverse() == RadScalar.one()
    y = RadScalar.from_rational(Fraction(-7, 2))
    assert y * y.inverse() == RadScalar.one()
    with pytest.raises(ZeroDivisionError):
        RadScalar.zero().inverse()
    multi = RadScalar.sqrt(2) + RadScalar.one()
    with pytest.raises(ValueError):
        multi.inverse()


def test_division_forms():
    x = RadScalar.sqrt(2)
    assert x / 2 == RadScalar.of(Fraction(1, 2), 2)
    assert x / Fraction(1, 2) == RadScalar.of(2, 2)
    assert (x / RadScalar.sqrt(2)) == RadScalar.one()


def test_as_fraction_requires_rational():
    assert RadScalar.from_rational(Fraction(5, 3)).as_fraction() == Fraction(5, 3)
    with pytest.raises(ValueError):
        RadScalar.sqrt(2).as_fraction()


def test_sqrt_factorial_ratio_squares_to_the_ratio():
    cases = [
        (((3, 4), (2,), (), ()), Fraction(
            math.factorial(3) * math.factorial(4), math.factorial(2))),
        (((6,), (3, 2), (5,), (3,)), Fraction(
            math.factorial(6) * 5, math.factorial(3) * math.factorial(2) * 3)),
    ]
    for (fn, fd, inum, iden), ratio in cases:
        val = sqrt_factorial_ratio(fact_num=fn, fact_den=fd,
                                   int_num=inum, int_den=iden)
        sq = val * val
        assert sq.is_rational and sq.as_fraction() == ratio


def test_sqrt_factorial_ratio_zero_and_negative():
    # A zero integer factor collapses the value; a negative factorial
    # argument is rejected.
    assert not sqrt_factorial_ratio(fact_num=(2,), fact_den=(1,), int_num=(0,))
    with pytest.raises(ValueError):
        sqrt_factorial_ratio(fact_num=(-1,), fact_den=(1,))
    with pytest.raises(ValueError):
        sqrt_factorial_ratio(fact_den=(-2,))


def test_sqrt_factorial_ratio_rejects_bad_integer_factors():
    # A negative integer numerator or a zero or negative integer
    # denominator has no real square root to give; a zero numerator is
    # still a legal zero.
    with pytest.raises(ValueError):
        sqrt_factorial_ratio(int_num=(-4,))
    with pytest.raises(ValueError):
        sqrt_factorial_ratio(int_den=(0,))
    with pytest.raises(ValueError):
        sqrt_factorial_ratio(fact_num=(3,), int_den=(-2,))
    assert not sqrt_factorial_ratio(fact_num=(3,), int_num=(0,), int_den=(5,))
    assert sqrt_factorial_ratio(int_num=(8,), int_den=(2,)) == RadScalar.of(2)


def test_sqrt_factorial_ratio_large_inputs_stay_exact():
    val = sqrt_factorial_ratio(fact_num=(40,), fact_den=(20, 20))
    sq = val * val
    want = Fraction(math.factorial(40), math.factorial(20) ** 2)
    assert sq.as_fraction() == want


def test_falling_binomial_values():
    assert falling_binomial(5, 2) == 10
    assert falling_binomial(5, 0) == 1
    assert falling_binomial(5, -1) == 0
    assert falling_binomial(-1, 2) == 1
    assert falling_binomial(-1, 3) == -1
    assert falling_binomial(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert falling_binomial(0, 1) == 0


def test_canonical_string_grammar():
    x = RadScalar.of(Fraction(-1, 2), 2) + RadScalar.one()
    assert str(x) == "(1) - (1/2)*sqrt(2)"
    assert str(RadScalar.zero()) == "0"
    assert str(RadScalar.of(Fraction(2, 3), 5)) == "(2/3)*sqrt(5)"


def test_as_rad_coercion():
    assert as_rad(3) == RadScalar.from_rational(3)
    assert as_rad(Fraction(1, 2)) == RadScalar.from_rational(Fraction(1, 2))
    assert as_rad(RadScalar.sqrt(7)) == RadScalar.sqrt(7)


def test_hash_consistency():
    a = RadScalar.sqrt(8)
    b = RadScalar.of(2, 2)
    assert a == b and hash(a) == hash(b)
