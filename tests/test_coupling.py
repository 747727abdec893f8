"""Intermediate vectors, alpha coefficients, and Clebsch-Gordan machinery."""

from fractions import Fraction

import pytest

from alpha_oracle import (alpha_entry, orthogonality_sum, uh_cgc_bra_sum,
                          uh_cgc_sum)
from jordanian import coupling
from jordanian.coupling import (alpha_coeff, alpha_table, cgc_matrix,
                                coupled_basis, coupled_bra, coupled_labels,
                                coupled_ladder, coupled_spins, decompose,
                                intermediate_bra, intermediate_ket,
                                product_labels, product_weight_index,
                                sl2_cgc, triangle_allowed, uh_cgc, uh_cgc_bra,
                                verify_alpha_orthogonality,
                                verify_intermediate_action,
                                verify_intermediate_orthonormality)
from jordanian.halfint import HalfInt, dim_of, half, weight_range
from jordanian.hpoly import HPoly
from jordanian.irreps import coproduct_gens, irrep
from jordanian.polymatrix import PolyMatrix
from jordanian.radical import RadScalar
from ladder_oracle import sl2_from_gens

H12 = half(1, 2)
SPINS_TO_5_2 = [HalfInt.from_twice(t) for t in range(6)]


@pytest.mark.parametrize("j1", SPINS_TO_5_2, ids=str)
@pytest.mark.parametrize("j2", SPINS_TO_5_2, ids=str)
def test_alpha_table_matches_per_entry_formula(j1, j2):
    labels = product_labels(j1, j2)
    want = PolyMatrix([[alpha_entry(j1, j2, k1, k2, m1, m2)
                        for m1, m2 in labels] for k1, k2 in labels])
    assert alpha_table(j1, j2).ket == want


def test_alpha_diagonal_is_one():
    for j1, j2 in [(H12, H12), (half(1), H12), (half(1), half(1))]:
        table = alpha_table(j1, j2)
        for m1 in weight_range(j1):
            for m2 in weight_range(j2):
                assert table.value(m1, m2, m1, m2) == HPoly.one()


def test_alpha_frozen_low_spin_values():
    # the full (1/2, 1/2) table has exactly four off-diagonal entries
    j = H12
    assert alpha_coeff(j, j, j, j, j, -j) == HPoly.h(1, Fraction(-1, 2))
    assert alpha_coeff(j, j, j, j, -j, j) == HPoly.h(1, Fraction(1, 2))
    assert alpha_coeff(j, j, j, j, -j, -j) == HPoly.h(2, Fraction(1, 4))
    assert alpha_coeff(j, j, j, -j, -j, -j) == HPoly.h(1, Fraction(-1, 2))
    assert alpha_coeff(j, j, -j, j, -j, -j) == HPoly.h(1, Fraction(1, 2))


def test_alpha_vanishes_unless_k_dominates_m():
    table = alpha_table(half(1), H12)
    for k1 in weight_range(half(1)):
        for k2 in weight_range(H12):
            for m1 in weight_range(half(1)):
                for m2 in weight_range(H12):
                    if k1 < m1 or k2 < m2:
                        assert not table.value(k1, k2, m1, m2)


def test_alpha_h_degree_is_index_drop():
    table = alpha_table(half(1), H12)
    for k1 in weight_range(half(1)):
        for k2 in weight_range(H12):
            for m1 in weight_range(half(1)):
                for m2 in weight_range(H12):
                    v = table.value(k1, k2, m1, m2)
                    if v:
                        assert v.degree == (k1 + k2 - m1 - m2).as_int()
                        assert v.coeff(v.degree)  # pure monomial
                        assert all(not v.coeff(e) for e in range(v.degree))


def test_alpha_table_rejects_out_of_range_indices():
    with pytest.raises(ValueError):
        alpha_table(H12, H12).value(half(3, 2), H12, H12, H12)


@pytest.mark.parametrize("j1,j2", [(H12, H12), (half(1), H12), (half(1), half(1))],
                         ids=str)
def test_alpha_orthogonality(j1, j2):
    report = verify_alpha_orthogonality(j1, j2)
    assert report.ok
    total = (dim_of(j1) * dim_of(j2)) ** 2
    assert report.counts()["pass"] == total


@pytest.mark.parametrize("j1,j2", [(H12, H12), (half(1), H12), (half(1), half(1))],
                         ids=str)
def test_intermediate_orthonormality(j1, j2):
    assert verify_intermediate_orthonormality(j1, j2).ok


def test_intermediate_action_and_second_slot_notes():
    same = verify_intermediate_action(H12, H12)
    assert same.ok
    assert any("identical" in n for n in same.notes)
    mixed = verify_intermediate_action(half(1), H12)
    assert mixed.ok
    # second-slot variant never applicable at mixed integer/half-integer spins
    assert not mixed.notes
    probed = verify_intermediate_action(half(3, 2), H12)
    assert probed.ok
    assert any("does NOT match" in n for n in probed.notes)


SPINS_TO_3 = [HalfInt.from_twice(t) for t in range(7)]


@pytest.mark.parametrize("j1", SPINS_TO_3, ids=str)
@pytest.mark.parametrize("j2", SPINS_TO_3, ids=str)
def test_coupled_ladder_matches_inverse_map_of_coproduct(j1, j2):
    # The closed forms from module data against the generic inverse map
    # applied to the coproduct matrices.
    gg = coproduct_gens(irrep(j1).gens(), irrep(j2).gens())
    assert coupled_ladder(j1, j2) == (*sl2_from_gens(gg), gg.h)


def test_intermediate_action_fails_without_the_neumann_factor(monkeypatch):
    # Delta(Zp) = S (1 + (h^2/4) Zp (x) Zp)^-1; with the inverse dropped the
    # coupled raising operator is wrong at order h^2 once both spins are
    # positive, and only the Zp checks can see it.
    exact = coupled_ladder

    def broken(j1, j2):
        _, zm, dh = exact(j1, j2)
        return coupling.slot_sums(j1, j2)[0], zm, dh

    monkeypatch.setattr(coupling, "coupled_ladder", broken)
    report = verify_intermediate_action(half(1), H12)
    assert not report.ok
    failed = [c.name for c in report.checks if c.status == "fail"]
    assert failed and all(name.startswith("Zp ") for name in failed)
    assert any(name.startswith("Zp ket (") for name in failed)


def test_intermediate_kets_reduce_to_product_basis_at_h0():
    j1, j2 = half(1), H12
    for m1 in weight_range(j1):
        for m2 in weight_range(j2):
            ket = intermediate_ket(j1, j2, m1, m2).eval_h(0)
            idx = product_weight_index(j1, j2, m1, m2)
            for i in range(dim_of(j1) * dim_of(j2)):
                want = HPoly.one() if i == idx else HPoly.zero()
                assert ket.entry(i, 0) == want
            bra = intermediate_bra(j1, j2, m1, m2).eval_h(0)
            assert bra.transpose() == ket


# -- classical Clebsch-Gordan coefficients ------------------------------------

def test_classical_cgc_half_half():
    c = sl2_cgc
    r = RadScalar.sqrt_fraction
    assert c(H12, H12, 1, H12, H12) == RadScalar.one()
    assert c(H12, H12, 1, H12, -H12) == r(Fraction(1, 2))
    assert c(H12, H12, 1, -H12, H12) == r(Fraction(1, 2))
    assert c(H12, H12, 0, H12, -H12) == r(Fraction(1, 2))
    assert c(H12, H12, 0, -H12, H12) == -r(Fraction(1, 2))


def test_classical_cgc_one_half():
    c = sl2_cgc
    r = RadScalar.sqrt_fraction
    assert c(1, H12, half(3, 2), 1, -H12) == r(Fraction(1, 3))
    assert c(1, H12, half(3, 2), 0, H12) == r(Fraction(2, 3))
    assert c(1, H12, H12, 1, -H12) == r(Fraction(2, 3))
    assert c(1, H12, H12, 0, H12) == -r(Fraction(1, 3))


def test_classical_cgc_one_one():
    c = sl2_cgc
    r = RadScalar.sqrt_fraction
    assert c(1, 1, 2, 1, -1) == r(Fraction(1, 6))
    assert c(1, 1, 2, 0, 0) == r(Fraction(2, 3))
    assert c(1, 1, 1, 1, -1) == r(Fraction(1, 2))
    assert c(1, 1, 1, 0, 0) == RadScalar.zero()
    assert c(1, 1, 1, -1, 1) == -r(Fraction(1, 2))
    assert c(1, 1, 0, 1, -1) == r(Fraction(1, 3))
    assert c(1, 1, 0, 0, 0) == -r(Fraction(1, 3))
    assert c(1, 1, 0, -1, 1) == r(Fraction(1, 3))


def test_classical_cgc_selection_rules():
    assert sl2_cgc(1, H12, half(5, 2), 1, H12) == RadScalar.zero()  # triangle
    assert sl2_cgc(1, 1, 1, 2, 0) == RadScalar.zero()  # m1 out of range
    assert not triangle_allowed(1, H12, 1)  # parity mismatch
    assert triangle_allowed(1, H12, half(3, 2))
    assert triangle_allowed(1, 1, 0)


@pytest.mark.parametrize("spins", [(-1, 1, 0), (1, -1, 0), (H12, H12, -1)],
                         ids=["j1", "j2", "j"])
def test_negative_spins_are_rejected(spins):
    with pytest.raises(ValueError, match="spin label must be nonnegative"):
        sl2_cgc(*spins, 0, 0)
    j1, j2, _ = spins
    if min(j1, j2) < 0:
        with pytest.raises(ValueError, match="spin label must be nonnegative"):
            product_labels(j1, j2)


def test_classical_cgc_condon_shortley_positivity():
    # <j1 j1; j2 (j - j1) | j j> > 0 for every admissible block
    for j1, j2 in [(half(1), H12), (half(3, 2), half(1)), (half(2), half(2))]:
        for j in coupled_spins(j1, j2):
            val = sl2_cgc(j1, j2, j, j1, j - j1)
            assert val and all(q > 0 for q, _ in val.sorted_terms())


def test_classical_cgc_row_orthonormality():
    # sum_j <m1 m2|j m>^2 = 1 at fixed (m1, m2)
    j1, j2 = half(3, 2), half(1)
    for m1 in weight_range(j1):
        for m2 in weight_range(j2):
            total = RadScalar.zero()
            for j in coupled_spins(j1, j2):
                c = sl2_cgc(j1, j2, j, m1, m2)
                total = total + c * c
            assert total == RadScalar.one()


def test_cgc_matrix_entries_are_classical_cgcs():
    for j1 in SPINS_TO_5_2[:5]:
        for j2 in SPINS_TO_5_2[:5]:
            c = cgc_matrix(j1, j2)
            for r, (n1, n2) in enumerate(product_labels(j1, j2)):
                for k, (j, m) in enumerate(coupled_labels(j1, j2)):
                    want = (sl2_cgc(j1, j2, j, n1, n2) if n1 + n2 == m
                            else RadScalar.zero())
                    assert c.entry(r, k) == HPoly.constant(want)


def test_cgc_matrix_is_the_memoized_c():
    for j1, j2 in ((H12, H12), (half(1), H12), (half(3, 2), half(1))):
        assert cgc_matrix(j1, j2) is alpha_table(j1, j2).cgc


# -- coupled modules -----------------------------------------------------------

def test_coupled_spins_ranges():
    assert coupled_spins(half(1), H12) == (half(3, 2), H12)
    assert coupled_spins(half(2), half(2)) == tuple(half(k) for k in range(4, -1, -1))
    assert coupled_spins(half(0), half(3, 2)) == (half(3, 2),)


@pytest.mark.parametrize("j1,j2", [(H12, H12), (half(1), H12), (half(1), half(1))],
                         ids=str)
def test_decompose_is_multiplicity_free(j1, j2):
    assert decompose(j1, j2) == [(j, 1) for j in coupled_spins(j1, j2)]


@pytest.mark.parametrize("j1,j2", [(half(1), H12), (half(1), half(1)),
                                   (half(3, 2), half(1))], ids=str)
def test_coupled_kets_satisfy_ladder_oracle(j1, j2):
    # Independent pinning of the deformed CGC table: the stretched top ket
    # is the bare product vector, every block top is annihilated by the
    # coupled raising operator, and descending the block with the coupled
    # lowering operator reproduces each ket with the classical ladder
    # normalization.  Together with biorthonormality this determines every
    # coefficient uniquely, so agreement here certifies the whole table.
    basis = coupled_basis(j1, j2)
    zp, zm, hc = coupled_ladder(j1, j2)
    dim = dim_of(j1) * dim_of(j2)
    stretched = basis.ket(j1 + j2, j1 + j2)
    for i in range(dim):
        want = HPoly.one() if i == 0 else HPoly.zero()
        assert stretched.entry(i, 0) == want
    for j in coupled_spins(j1, j2):
        assert (zp @ basis.ket(j, j)).is_zero
        for m in weight_range(j):
            ket = basis.ket(j, m)
            assert hc @ ket == ket * Fraction(m.twice)
            lowered = zm @ ket
            fac = RadScalar.sqrt((j + m).as_int() * ((j - m).as_int() + 1))
            if m > -j:
                assert lowered == basis.ket(j, m - 1) * fac
            else:
                assert lowered.is_zero


@pytest.mark.parametrize("j1,j2", [(half(1), H12), (half(1), half(1))], ids=str)
def test_coupled_biorthonormality(j1, j2):
    basis = coupled_basis(j1, j2)
    for j in coupled_spins(j1, j2):
        for m in weight_range(j):
            for jp in coupled_spins(j1, j2):
                for mp in weight_range(jp):
                    val = (coupled_bra(j1, j2, jp, mp) @ basis.ket(j, m)).scalar()
                    want = HPoly.one() if (j, m) == (jp, mp) else HPoly.zero()
                    assert val == want


def test_uh_cgc_matches_coupled_ket_entries():
    # Both are read off K C, so each is held against the defining sum.
    j1, j2 = half(1), H12
    basis = coupled_basis(j1, j2)
    for j in coupled_spins(j1, j2):
        for m in weight_range(j):
            ket = basis.ket(j, m)
            for k1 in weight_range(j1):
                for k2 in weight_range(j2):
                    idx = product_weight_index(j1, j2, k1, k2)
                    want = uh_cgc_sum(j1, j2, j, k1, k2, m)
                    assert uh_cgc(j1, j2, j, k1, k2, m) == want
                    assert ket.entry(idx, 0) == want


def test_uh_cgc_frozen_singlet_value():
    # the deformed singlet of two spin-1/2 picks up a pure h term on the
    # stretched product state
    val = uh_cgc(H12, H12, 0, H12, H12, 0)
    assert val == HPoly.h(1, RadScalar.of(Fraction(-1, 2), 2))
    # while the triplet keeps no such component
    assert not uh_cgc(H12, H12, 1, H12, H12, 0)


def test_uh_cgc_classical_limit():
    for j1, j2 in [(H12, H12), (half(1), H12), (half(1), half(1))]:
        for j in coupled_spins(j1, j2):
            for m in weight_range(j):
                for k1 in weight_range(j1):
                    for k2 in weight_range(j2):
                        ket_val = uh_cgc(j1, j2, j, k1, k2, m).eval_h(0)
                        bra_val = uh_cgc_bra(j1, j2, j, k1, k2, m).eval_h(0)
                        classical = sl2_cgc(j1, j2, j, k1, k2) \
                            if k1 + k2 == m else RadScalar.zero()
                        assert ket_val == classical
                        assert bra_val == classical


def test_uh_cgc_weight_support():
    # ket coefficients need k1+k2 >= m (alpha requires k >= m slotwise);
    # bra coefficients need k1+k2 <= m (negated indices)
    j1, j2 = half(1), H12
    for j in coupled_spins(j1, j2):
        for m in weight_range(j):
            for k1 in weight_range(j1):
                for k2 in weight_range(j2):
                    if (k1 + k2) < m:
                        assert not uh_cgc(j1, j2, j, k1, k2, m)
                    if (k1 + k2) > m:
                        assert not uh_cgc_bra(j1, j2, j, k1, k2, m)


# -- the matrix core against the defining index sums --------------------------

SPINS_UP_TO_2 = [half(t, 2) for t in range(5)]


@pytest.mark.parametrize("j1,j2", [(a, b) for a in SPINS_UP_TO_2
                                   for b in SPINS_UP_TO_2], ids=str)
def test_matrix_core_matches_defining_sums(j1, j2):
    # B K against sum_k alpha[k; m] alpha[-k; -n]; K C and C^T B, each
    # through both the full product and the single-cell path, against the
    # channel sums that define uh_cgc and uh_cgc_bra.
    table = alpha_table(j1, j2)
    bk = table.bra @ table.ket
    labels = product_labels(j1, j2)
    for r, (n1, n2) in enumerate(labels):
        for c, (m1, m2) in enumerate(labels):
            assert bk.entry(r, c) == orthogonality_sum(j1, j2, m1, m2, n1, n2)
    kc = coupled_basis(j1, j2).matrix
    for c, (j, m) in enumerate(coupled_labels(j1, j2)):
        bra = coupled_bra(j1, j2, j, m)
        for r, (k1, k2) in enumerate(labels):
            ket_sum = uh_cgc_sum(j1, j2, j, k1, k2, m)
            bra_sum = uh_cgc_bra_sum(j1, j2, j, k1, k2, m)
            assert kc.entry(r, c) == ket_sum
            assert uh_cgc(j1, j2, j, k1, k2, m) == ket_sum
            assert bra.entry(0, r) == bra_sum
            assert uh_cgc_bra(j1, j2, j, k1, k2, m) == bra_sum


def test_memoized_tables_are_read_only():
    # The memo hands every caller the same objects; none of them can be
    # changed in place, so later results stay as they were.
    table = alpha_table(1, 1)
    before = table.value(1, 1, 1, 0)
    assert before == HPoly.h(1, -RadScalar.sqrt(2))
    with pytest.raises(AttributeError):
        table.values[(half(1), half(1), half(1), half(0))] = HPoly.zero()
    with pytest.raises(AttributeError):
        table.ket = PolyMatrix.zeros(9, 9)
    with pytest.raises(AttributeError):
        table.bra = PolyMatrix.zeros(9, 9)
    with pytest.raises(AttributeError):
        table.cgc = PolyMatrix.zeros(9, 9)
    with pytest.raises(AttributeError):
        table.ket.entries = ()
    with pytest.raises(TypeError):
        table.ket.entries[0][1] = HPoly.zero()
    with pytest.raises(AttributeError):
        irrep(1).x.entries = ()
    # Scalars are shared too: a sum with zero hands back the memo's entry.
    entry = irrep(1).x.entry(0, 1)
    shared = (irrep(1).x + PolyMatrix.zeros(3, 3)).entry(0, 1)
    assert shared is entry
    with pytest.raises(TypeError):
        entry.coeffs[0].terms[2] = Fraction(5)
    with pytest.raises(TypeError):
        del shared.coeffs[0].terms[2]
    with pytest.raises(AttributeError):
        entry.coeffs[0].terms = {}
    with pytest.raises(AttributeError):
        entry.coeffs = ()
    zero = (irrep(1).x @ irrep(1).x).entry(2, 0)
    with pytest.raises(AttributeError):
        zero.coeffs = (RadScalar.one(),)
    with pytest.raises(AttributeError):
        del zero.coeffs
    assert not (irrep(1).x @ irrep(1).x).entry(2, 1)
    assert irrep(1).x.entry(0, 1) == HPoly.constant(RadScalar.sqrt(2))
    assert (irrep(1).x @ irrep(1).x).entry(0, 2) == HPoly.constant(2)
    assert alpha_table(1, 1) is table
    assert alpha_table(1, 1).value(1, 1, 1, 0) == before
    assert verify_alpha_orthogonality(1, 1).ok
    assert uh_cgc(1, 1, 2, 1, 1, 2) == HPoly.one()
