"""Irrep matrices, defining relations, Casimir, and the Hopf structure."""

from fractions import Fraction

import pytest

from jordanian.halfint import HalfInt, half, weight_range
from jordanian.hpoly import HPoly
from jordanian.irreps import (Generator, antipode_matrix, casimir_from_gens,
                              casimir_ladder_form, casimir_matrix,
                              coproduct_gens, coproduct_matrix,
                              coproduct_terms, cosh_hx, counit, exp_hx,
                              generator_matrix, irrep, ladder_factor, sinh_hx,
                              sl2_irrep, verify_casimir,
                              verify_defining_relations, verify_hopf_axioms,
                              x_matrix, y_matrix)
from jordanian.polymatrix import PolyMatrix, commutator, exp_nilpotent, kron
from jordanian.radical import RadScalar
from ladder_oracle import cosh_half_hx, sl2_from_gens

SPINS = [half(0), half(1, 2), half(1), half(3, 2), half(2)]

R2 = RadScalar.sqrt(2)
# -h^2 / (2 sqrt(2)) = -(sqrt(2)/4) h^2
Y_CORR = HPoly.h(2, RadScalar.of(Fraction(-1, 4), 2))


def test_spin_half_matrices_are_classical():
    rep = irrep(half(1, 2))
    assert rep.x == PolyMatrix([[0, 1], [0, 0]])
    assert rep.y == PolyMatrix([[0, 0], [1, 0]])
    assert rep.hm == PolyMatrix.diagonal([1, -1])
    # the deformation is invisible in two dimensions
    assert rep.x == rep.zp and rep.y == rep.zm


def test_spin_one_matrices_carry_the_quadratic_correction():
    rep = irrep(half(1))
    assert rep.x == PolyMatrix([[0, R2, 0], [0, 0, R2], [0, 0, 0]])
    assert rep.y == PolyMatrix([[0, Y_CORR, 0],
                                [R2, 0, Y_CORR],
                                [0, R2, 0]])
    assert rep.hm == PolyMatrix.diagonal([2, 0, -2])


def test_spin_three_half_x_series_term():
    x = x_matrix(half(3, 2))
    assert x.entry(0, 3) == HPoly.h(2, Fraction(1, 2))
    assert x.entry(0, 1) == HPoly.constant(RadScalar.sqrt(3))
    assert x.entry(1, 2) == HPoly.constant(2)
    # strictly upper triangular
    for i in range(4):
        for k in range(i + 1):
            assert x.entry(i, k) == HPoly.zero()


def test_ladder_factor_values_and_errors():
    j = half(1)
    assert ladder_factor(j, half(0), +1) == RadScalar.sqrt(2)
    assert ladder_factor(j, half(1), +1) == RadScalar.zero()
    assert ladder_factor(j, half(-1), -1) == RadScalar.zero()
    with pytest.raises(ValueError):
        ladder_factor(j, half(0), 2)


def test_sl2_lowering_matrix_matches_ladder_factor():
    for twice in range(7):
        j = HalfInt.from_twice(twice)
        ws = weight_range(j)
        want = PolyMatrix([[ladder_factor(j, m, -1) if n == m - 1 else 0
                            for m in ws] for n in ws], ws, ws)
        zm = sl2_irrep(j)[1]
        assert zm == want
        assert (zm.row_weights, zm.col_weights) == (ws, ws)


def test_sl2_ladder_commutators():
    for j in SPINS:
        zp, zm, hm = sl2_irrep(j)
        assert commutator(zp, zm) == hm
        assert commutator(hm, zp) == zp * 2
        assert commutator(hm, zm) == zm * (-2)


@pytest.mark.parametrize("j", SPINS, ids=str)
def test_defining_relations_hold_exactly(j):
    report = verify_defining_relations(j)
    assert report.ok
    assert report.counts() == {"pass": 3, "fail": 0, "skip": 0}


@pytest.mark.parametrize("j", SPINS, ids=str)
def test_casimir_is_scalar(j):
    report = verify_casimir(j)
    assert report.ok
    # and directly: both forms literally equal j(j+1) I
    cval = Fraction(j.twice * (j.twice + 2), 4)
    expected = PolyMatrix.identity(j.twice + 1) * cval
    assert casimir_matrix(j) == expected
    assert casimir_ladder_form(j) == expected


def test_exponentials_are_each_others_inverses():
    for j in SPINS:
        rep = irrep(j)
        ident = PolyMatrix.identity(rep.dim)
        assert rep.exp_hx @ rep.exp_mhx == ident
        assert rep.exp_mhx @ rep.exp_hx == ident
        assert exp_hx(j, +1) == rep.exp_hx
        assert exp_hx(j, -1) == rep.exp_mhx
    with pytest.raises(ValueError):
        exp_hx(half(1), 3)


def test_exp_matches_logarithm_oracle():
    # Recover X from e^{hX} through the terminating log(1 + n) series and
    # one exact division by h: an independent inverse of the exponential.
    for j in SPINS[1:]:
        rep = irrep(j)
        n = rep.exp_hx - PolyMatrix.identity(rep.dim)
        acc = PolyMatrix.zeros(rep.dim, rep.dim)
        power = PolyMatrix.identity(rep.dim)
        for k in range(1, rep.dim + 1):
            power = power @ n
            acc = acc + power * Fraction((-1) ** (k + 1), k)
        assert acc.divide_h(1) == rep.x


def test_hyperbolic_helpers_satisfy_their_identity():
    for j in SPINS:
        g = irrep(j).gens()
        ident = PolyMatrix.identity(g.dim)
        ch, sh = cosh_hx(g), sinh_hx(g)
        assert ch @ ch - sh @ sh == ident
        ch2 = cosh_half_hx(g)
        # half-angle: 2 cosh^2(hX/2) - 1 = cosh(hX)
        assert ch2 @ ch2 * 2 - ident == ch


def test_nonlinear_map_round_trip():
    for j in SPINS:
        rep = irrep(j)
        zp, zm = sl2_from_gens(rep.gens())
        assert zp == rep.zp
        assert zm == rep.zm


def test_classical_limit_of_generator_matrices():
    for j in SPINS:
        rep = irrep(j)
        assert rep.x.eval_h(0) == rep.zp
        assert rep.y.eval_h(0) == rep.zm
        assert rep.exp_hx.eval_h(0) == PolyMatrix.identity(rep.dim)


def test_generator_matrix_lookup():
    j = half(1, 2)
    assert generator_matrix(j, Generator.X) == irrep(j).x
    assert generator_matrix(j, Generator.UNIT) == PolyMatrix.identity(2)
    assert generator_matrix(j, Generator.EXP_MHX) == irrep(j).exp_mhx


def test_weights_are_descending():
    rep = irrep(half(3, 2))
    assert rep.weights == (half(3, 2), half(1, 2), half(-1, 2), half(-3, 2))
    assert rep.weights == tuple(weight_range(half(3, 2)))
    assert rep.gens().weights == rep.weights


def test_coproduct_terms_shapes():
    assert coproduct_terms(Generator.X) == (
        (Generator.X, Generator.UNIT), (Generator.UNIT, Generator.X))
    assert coproduct_terms(Generator.EXP_HX) == (
        (Generator.EXP_HX, Generator.EXP_HX),)
    assert counit(Generator.X) == 0
    assert counit(Generator.UNIT) == 1
    assert counit(Generator.EXP_MHX) == 1


def test_coproduct_of_x_is_primitive():
    g1, g2 = irrep(half(1, 2)).gens(), irrep(half(1)).gens()
    left = coproduct_matrix(Generator.X, g1, g2)
    ident1 = PolyMatrix.identity(g1.dim)
    ident2 = PolyMatrix.identity(g2.dim)
    assert left == kron(g1.x, ident2) + kron(ident1, g2.x)


def test_coproduct_exponential_is_group_like():
    g1, g2 = irrep(half(1, 2)).gens(), irrep(half(1)).gens()
    gg = coproduct_gens(g1, g2)
    assert gg.ep == kron(g1.ep, g2.ep)
    # coherence: e^{hX} on the product equals exp of the coproduct of X
    assert gg.ep == exp_nilpotent(gg.x, HPoly.h(1, 1))


def test_casimir_on_product_module_is_not_scalar():
    g1 = irrep(half(1, 2)).gens()
    gg = coproduct_gens(g1, g1)
    cas = casimir_from_gens(gg)
    # block eigenvalues 2 and 0 appear, so it is not a multiple of identity
    assert cas != PolyMatrix.identity(4) * cas.entry(0, 0)


def test_antipode_matrices():
    g = irrep(half(1)).gens()
    assert antipode_matrix(Generator.X, g) == -g.x
    assert antipode_matrix(Generator.EXP_HX, g) == g.em
    assert antipode_matrix(Generator.Y, g) == -(g.ep @ g.y @ g.em)
    assert antipode_matrix(Generator.UNIT, g) == PolyMatrix.identity(3)


@pytest.mark.parametrize("j", SPINS[:4], ids=str)
def test_hopf_axioms(j):
    report = verify_hopf_axioms(j)
    assert report.ok
    counts = report.counts()
    assert counts["fail"] == 0 and counts["pass"] >= 24
