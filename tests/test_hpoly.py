"""Polynomials in the deformation parameter h over the radical scalars."""

import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanian.cli import _json_scalar
from jordanian.hpoly import HPoly, as_hpoly
from jordanian.radical import RadScalar, format_terms


def test_construction_trims_trailing_zeros():
    p = HPoly((1, 2, 0, 0))
    assert p.degree == 1
    assert p == HPoly((1, 2))
    assert HPoly((0, 0)).degree == -1
    assert not HPoly(())


def test_monomial_constructor():
    p = HPoly.h(3, Fraction(1, 2))
    assert p.degree == 3
    assert p.coeff(3) == RadScalar.of(Fraction(1, 2))
    assert p.coeff(0) == RadScalar.zero()
    assert HPoly.h() == HPoly((0, 1))
    with pytest.raises(ValueError):
        HPoly.h(-1)


def test_bad_coefficient_type_rejected():
    with pytest.raises(TypeError):
        HPoly(("x",))


def test_coeff_out_of_range_is_zero():
    p = HPoly.one()
    assert p.coeff(5) == RadScalar.zero()
    assert p.coeff(-1) == RadScalar.zero()


def test_constant_value():
    assert HPoly.constant(7).constant_value() == RadScalar.from_rational(7)
    assert HPoly.zero().constant_value() == RadScalar.zero()
    with pytest.raises(ValueError):
        HPoly.h(1).constant_value()


def test_divide_h_exact_and_errors():
    p = HPoly.h(2, 3) + HPoly.h(4, Fraction(1, 2))
    q = p.divide_h(2)
    assert q == HPoly.constant(3) + HPoly.h(2, Fraction(1, 2))
    assert p.divide_h(0) == p
    with pytest.raises(ValueError):
        (HPoly.one() + HPoly.h(1)).divide_h(1)
    with pytest.raises(ValueError):
        p.divide_h(-1)
    # dividing zero by any power is fine
    assert HPoly.zero().divide_h(3) == HPoly.zero()


def test_division_by_scalar():
    p = HPoly.h(1, 6)
    assert p / 3 == HPoly.h(1, 2)
    assert p / Fraction(3, 2) == HPoly.h(1, 4)
    root = RadScalar.sqrt(2)
    assert (p / root) * root == p
    with pytest.raises(ValueError):
        p / (RadScalar.one() + RadScalar.sqrt(2))


def test_coercion_in_mixed_arithmetic():
    p = HPoly.h(1)
    assert p + 1 == HPoly((1, 1))
    assert 1 + p == HPoly((1, 1))
    assert 1 - p == HPoly((1, -1))
    assert p * Fraction(1, 2) == HPoly.h(1, Fraction(1, 2))
    assert p + RadScalar.sqrt(3) == HPoly((RadScalar.sqrt(3), 1))
    assert as_hpoly(p) is p
    assert as_hpoly(object()) is NotImplemented


def test_string_forms():
    assert str(HPoly.zero()) == "0"
    assert str(HPoly.h(1, Fraction(-1, 2))) == "-(1/2)*h"
    assert str(HPoly.h(2, Fraction(1, 4))) == "(1/4)*h^2"
    mixed = HPoly.one() + HPoly.h(2, RadScalar.sqrt(2) * Fraction(-1, 2))
    assert str(mixed) == "(1) - (1/2)*sqrt(2)*h^2"


def test_hash_agrees_with_equality():
    a = HPoly((1, Fraction(1, 2)))
    b = HPoly((1, 0)) + HPoly.h(1, Fraction(1, 2))
    assert a == b and hash(a) == hash(b)


small_rationals = st.builds(
    Fraction,
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=1, max_value=4),
)

coefficients = st.one_of(
    small_rationals.map(RadScalar.from_rational),
    st.tuples(small_rationals, st.sampled_from([1, 2, 3, 5])).map(
        lambda t: RadScalar.of(*t)),
)

polys = st.lists(coefficients, min_size=0, max_size=4).map(HPoly)


@settings(max_examples=60)
@given(polys, polys, polys)
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + HPoly.zero() == p
    assert p * HPoly.one() == p
    assert p - p == HPoly.zero()
    assert p * HPoly.zero() == HPoly.zero()


@settings(max_examples=60)
@given(polys, polys, small_rationals)
def test_eval_h_is_a_ring_homomorphism(p, q, value):
    assert (p + q).eval_h(value) == p.eval_h(value) + q.eval_h(value)
    assert (p * q).eval_h(value) == p.eval_h(value) * q.eval_h(value)
    assert p.eval_h(0) == p.coeff(0)


@settings(max_examples=60)
@given(polys, st.integers(min_value=0, max_value=3))
def test_divide_h_inverts_multiplication(p, k):
    shifted = p * HPoly.h(k)
    assert shifted.divide_h(k) == p


@settings(max_examples=40)
@given(polys)
def test_degree_of_products(p):
    if p:
        q = p * HPoly.h(2)
        assert q.degree == p.degree + 2
    assert (p * HPoly.zero()).degree == -1


@settings(max_examples=60)
@given(polys)
def test_kept_text_is_invisible(p):
    # str() and the JSON writer keep the texts they formed; nothing else
    # may see them.
    twin = HPoly(p.coeffs)
    before = hash(p)
    text = str(p)
    assert text == format_terms(p.sorted_terms())
    assert str(p) is text
    json_text = _json_scalar(p, "\n  ")
    assert _json_scalar(p, "\n  ") is json_text
    assert json_text == _json_scalar(HPoly(p.coeffs), "\n  ")
    assert p == twin and twin == p and hash(p) == hash(twin) == before
    assert pickle.dumps(p) == pickle.dumps(twin)
    copy = pickle.loads(pickle.dumps(p))
    assert copy == p and hash(copy) == before and str(copy) == text
    assert _json_scalar(copy, "\n  ") == json_text
    for name in ("_text", "_json", "coeffs"):
        with pytest.raises(AttributeError):
            setattr(p, name, "x")
        with pytest.raises(AttributeError):
            delattr(p, name)
    assert str(p) is text and p.coeffs == twin.coeffs
    assert _json_scalar(p, "\n  ") == json_text
