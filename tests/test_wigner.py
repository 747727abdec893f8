"""Factorization of operator matrix elements through reduced invariants."""

import functools
from collections import Counter
from fractions import Fraction

import pytest

from alpha_oracle import phi_sum, uh_cgc_bra_sum
from jordanian import cli, coupling, tensorops
from jordanian.coupling import AlphaTable, product_labels, uh_cgc_bra
from jordanian.halfint import half, weight_range
from jordanian.hpoly import HPoly
from jordanian.polymatrix import PolyMatrix
from jordanian.radical import RadScalar
from jordanian.tensorops import (OpSpaceContext, TensorOpFamily,
                                 boson_lowering_family, boson_raising_family,
                                 fermion_realization, fermion_wigner_families,
                                 identity_family, rank1_generators)
from jordanian.wigner import (ChannelMismatch, SelectionRuleError,
                              matrix_element, phi_vector,
                              reduced_matrix_element,
                              verify_overlap_recurrence, verify_phi_recurrence,
                              verify_wigner_eckart, wigner_eckart_weight)

H12 = half(1, 2)


def all_families():
    fa, fb = fermion_wigner_families()
    fams = [("fermion A", fa), ("fermion B", fb)]
    for j in (half(0), H12, half(1), half(3, 2)):
        fams.append((f"raising {j}", boson_raising_family(j)))
    for j in (H12, half(1), half(3, 2)):
        fams.append((f"lowering {j}", boson_lowering_family(j)))
    for j in (H12, half(1), half(3, 2)):
        fams.append((f"rank1 {j}", rank1_generators(j)))
    fams.append(("identity", identity_family(half(1))))
    return fams


ZOO = [pytest.param(label, fam, id=label) for label, fam in all_families()]


# -- frozen reduced matrix elements --------------------------------------------

def test_fermion_reduced_elements_are_opposite_roots():
    fa, fb = fermion_wigner_families()
    assert reduced_matrix_element(fa).value == HPoly.constant(-RadScalar.sqrt(2))
    assert reduced_matrix_element(fb).value == HPoly.constant(RadScalar.sqrt(2))


def test_boson_reduced_elements_follow_dimension_rule():
    for j in (half(0), H12, half(1), half(3, 2), half(2)):
        rme = reduced_matrix_element(boson_raising_family(j))
        assert rme.value == HPoly.constant(RadScalar.sqrt(j.twice + 1))
        assert rme.source_j == j and rme.target_j == j + H12
    for j in (H12, half(1), half(3, 2), half(2)):
        rme = reduced_matrix_element(boson_lowering_family(j))
        assert rme.value == HPoly.constant(-RadScalar.sqrt(j.twice + 1))
        assert rme.target_j == j - H12


def test_rank1_reduced_elements():
    rme_half = reduced_matrix_element(rank1_generators(H12))
    assert rme_half.value == HPoly.constant(RadScalar.of(Fraction(-1, 2), 6))
    rme_one = reduced_matrix_element(rank1_generators(half(1)))
    assert rme_one.value == HPoly.constant(Fraction(-2))


def test_identity_reduced_element_is_one():
    for j in (H12, half(1), half(2)):
        assert reduced_matrix_element(identity_family(j)).value == HPoly.one()


def test_reduced_elements_are_h_free():
    for label, fam in all_families():
        value = reduced_matrix_element(fam).value
        assert value.is_constant, label


def test_reduced_matrix_element_str():
    fa, _ = fermion_wigner_families()
    assert str(reduced_matrix_element(fa)) == "I(1/2 1/2 0) = -(1)*sqrt(2)"


# -- recurrences and the full factorization ------------------------------------

@pytest.mark.parametrize("label,fam", ZOO)
def test_phi_recurrence(label, fam):
    assert verify_phi_recurrence(fam).ok


@pytest.mark.parametrize("label,fam", ZOO)
def test_overlap_recurrence(label, fam):
    assert verify_overlap_recurrence(fam).ok


@pytest.mark.parametrize("label,fam", ZOO)
def test_wigner_eckart_factorization(label, fam):
    report = verify_wigner_eckart(fam)
    assert report.ok
    counts = report.counts()
    assert counts["fail"] == 0 and counts["pass"] > 1


def test_weight_equals_deformed_bra_coefficient():
    # The weight is read off C^T B; hold it against its defining sum
    # sum_n alpha[(-m1,-m2); (-n1,-n2)] C(n1,n2,m).
    for j1, j2, j in [(H12, H12, half(0)), (H12, H12, half(1)),
                      (H12, half(1), half(3, 2)), (half(1), half(1), half(1))]:
        for m1 in weight_range(j1):
            for m2 in weight_range(j2):
                for m in weight_range(j):
                    assert wigner_eckart_weight(j1, j2, j, m1, m2, m) == \
                        uh_cgc_bra_sum(j1, j2, j, m1, m2, m)


@pytest.mark.parametrize("label,fam", ZOO)
def test_phi_and_weights_match_defining_sums(label, fam):
    j1, j2, j = fam.rank, fam.ctx.source_j, fam.ctx.target_j
    for n1, n2 in product_labels(j1, j2):
        assert phi_vector(fam, n1, n2) == phi_sum(fam, n1, n2)
    for m in weight_range(j):
        for m1, m2 in product_labels(j1, j2):
            assert wigner_eckart_weight(j1, j2, j, m1, m2, m) == \
                uh_cgc_bra_sum(j1, j2, j, m1, m2, m)


def test_fermion_matrix_elements_factor_by_hand():
    fa, _ = fermion_wigner_families()
    # the m = -1/2 component has row (1, -h) against the doublet
    assert matrix_element(fa, 0, -H12, H12) == HPoly.one()
    assert matrix_element(fa, 0, -H12, -H12) == HPoly.h(1, -1)
    assert matrix_element(fa, 0, H12, H12) == HPoly.zero()
    assert matrix_element(fa, 0, H12, -H12) == HPoly.constant(-1)
    # I = -sqrt(2), so the bra coefficients must be the elements over -sqrt(2)
    inv = RadScalar.of(Fraction(-1, 2), 2)  # 1 / (-sqrt 2)
    assert uh_cgc_bra(H12, H12, 0, -H12, H12, 0) == \
        HPoly.constant(RadScalar.one() * inv)
    assert uh_cgc_bra(H12, H12, 0, H12, -H12, 0) == \
        HPoly.constant(-inv)


def test_weight_degree_and_support():
    # nonzero weights need m >= m1+m2 and are h-monomials of degree
    # m - m1 - m2
    j1, j2, j = H12, half(1), half(3, 2)
    for m1 in weight_range(j1):
        for m2 in weight_range(j2):
            for m in weight_range(j):
                w = wigner_eckart_weight(j1, j2, j, m1, m2, m)
                if (m - m1 - m2) < 0:
                    assert not w
                elif w:
                    deg = (m - m1 - m2).as_int()
                    assert w.degree == deg
                    assert all(not w.coeff(e) for e in range(deg))


# -- error paths ---------------------------------------------------------------

def test_selection_rule_on_trivial_module():
    with pytest.raises(SelectionRuleError):
        reduced_matrix_element(rank1_generators(0))


def test_non_ladder_module_is_rejected():
    _, full_a, _ = fermion_realization()
    with pytest.raises(ValueError):
        reduced_matrix_element(full_a)
    with pytest.raises(ValueError):
        verify_wigner_eckart(full_a)


def _perturbed_raising_family():
    fam = boson_raising_family(H12)
    t_up, t_dn = fam.components
    rows = [list(r) for r in t_up.entries]
    rows[0][0] = rows[0][0] + HPoly.h(1)
    return TensorOpFamily(rank=fam.rank,
                          components=(PolyMatrix(rows), t_dn),
                          ctx=fam.ctx)


def test_channel_mismatch_on_perturbed_family():
    with pytest.raises(ChannelMismatch):
        reduced_matrix_element(_perturbed_raising_family())


def test_perturbed_family_fails_verification():
    report = verify_wigner_eckart(_perturbed_raising_family())
    assert not report.ok
    assert report.failures()


# -- matrices formed once ------------------------------------------------------


def _count_builds(monkeypatch, cls, name, builds):
    """Replace the cached property cls.name by one that appends its owner
    to builds each time it forms the value."""
    form = getattr(cls, name).func

    def counted(owner):
        builds.append(owner)
        return form(owner)
    prop = functools.cached_property(counted)
    prop.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, prop)


@pytest.fixture
def wigner_suite_builds(monkeypatch, capsys):
    """Run verify --suite wigner-eckart --max-j 2 on fresh pair tables and
    fresh family memos, and give, per kept matrix, the objects it was
    formed for (in build order; one entry per build)."""
    for memo in (coupling.alpha_table, coupling.cgc_matrix,
                 tensorops.boson_raising_family, tensorops.boson_lowering_family,
                 tensorops.rank1_generators, tensorops.identity_family):
        monkeypatch.setattr(memo, "built", {})
    builds = {"dual": []}
    _count_builds(monkeypatch, AlphaTable, "dual", builds["dual"])
    for name in ("columns", "phi", "ladder_sides"):
        builds[name] = []
        _count_builds(monkeypatch, TensorOpFamily, name, builds[name])
    assert cli.main(["verify", "--suite", "wigner-eckart",
                     "--max-j", "2"]) == 0
    capsys.readouterr()
    return builds


def test_dual_product_is_formed_once_per_pair(wigner_suite_builds):
    # (C^T B)(K C) depends on the (rank, source spin) pair only: 16
    # families share 10 pairs, and each pair forms the product once.
    families = wigner_suite_builds["columns"]
    pairs = Counter((t.j1, t.j2) for t in wigner_suite_builds["dual"])
    assert set(pairs.values()) == {1}
    assert set(pairs) == {(f.rank, f.ctx.source_j) for f in families}
    assert (len(families), len(pairs)) == (16, 10)


def test_family_matrices_are_formed_once_per_family(wigner_suite_builds):
    # T and Phi once for each of the 16 families; the ladder sides once for
    # each of the 7 families whose recurrences are checked (fermion A and
    # B, boson raising at spins 0 to 2).
    for name, count in (("columns", 16), ("phi", 16), ("ladder_sides", 7)):
        families = wigner_suite_builds[name]
        assert len(families) == len({id(f) for f in families}) == count, name
