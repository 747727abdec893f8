"""Classical CGCs against an independent implementation: sympy's CG.

``sl2_cgc`` reads an entry of the CGC matrix C, built from Racah sums in a
radical gauge, and the test oracle ``racah_cgc`` sums the Racah formula one
coefficient at a time; sympy evaluates its own implementation.  Every
coefficient with j1, j2 <= 2 is compared, plus a seeded sample with spins
up to 3.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")
from sympy.physics.quantum.cg import CG  # noqa: E402

from alpha_oracle import racah_cgc  # noqa: E402
from jordanian.coupling import sl2_cgc  # noqa: E402
from jordanian.halfint import half, weight_range  # noqa: E402


def _sym(x):
    return sympy.Rational(x.twice, 2)


def _as_sympy(r):
    return sum((sympy.Rational(q.numerator, q.denominator) * sympy.sqrt(n)
                for n, q in r.terms.items()), sympy.S.Zero)


def _coefficients(max_twice):
    """Every (j1, j2, j, m1, m2) with 2*j1, 2*j2 <= max_twice and |m1+m2| <= j."""
    spins = [half(t, 2) for t in range(max_twice + 1)]
    for j1 in spins:
        for j2 in spins:
            for t in range(abs(j1.twice - j2.twice), j1.twice + j2.twice + 1, 2):
                j = half(t, 2)
                for m1 in weight_range(j1):
                    for m2 in weight_range(j2):
                        if abs((m1 + m2).twice) <= j.twice:
                            yield j1, j2, j, m1, m2


def _assert_agrees(j1, j2, j, m1, m2):
    expected = CG(_sym(j1), _sym(m1), _sym(j2), _sym(m2), _sym(j),
                  _sym(m1 + m2)).doit()
    for cgc in (sl2_cgc, racah_cgc):
        assert _as_sympy(cgc(j1, j2, j, m1, m2)) - expected == 0, \
            (cgc.__name__, j1, j2, j, m1, m2, expected)


def test_sl2_cgc_matches_sympy_up_to_spin_two():
    cases = list(_coefficients(4))
    assert len(cases) == 517
    for case in cases:
        _assert_agrees(*case)


def test_sl2_cgc_matches_sympy_on_a_sample_up_to_spin_three():
    larger = [c for c in _coefficients(6) if max(c[0].twice, c[1].twice) > 4]
    for case in random.Random(20260).sample(larger, 600):
        _assert_agrees(*case)
