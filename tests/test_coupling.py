"""Intermediate vectors, alpha coefficients, and Clebsch-Gordan machinery."""

import hashlib
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
from jordanian.radical import RadScalar, falling_binomial
from jordanian.tensorops import boson_raising_family
from jordanian.wigner import reduced_matrix_element
from ladder_oracle import sl2_from_gens

H12 = half(1, 2)
SPINS_TO_5_2 = [HalfInt.from_twice(t) for t in range(6)]
SPINS_TO_7_2 = [HalfInt.from_twice(t) for t in range(8)]


def _assert_alpha_matches_per_entry_formula(j1, j2):
    labels = product_labels(j1, j2)
    want = PolyMatrix([[alpha_entry(j1, j2, k1, k2, m1, m2)
                        for m1, m2 in labels] for k1, k2 in labels])
    assert alpha_table(j1, j2).ket == want


@pytest.mark.parametrize("j1", SPINS_TO_5_2, ids=str)
@pytest.mark.parametrize("j2", SPINS_TO_5_2, ids=str)
def test_alpha_table_matches_per_entry_formula(j1, j2):
    _assert_alpha_matches_per_entry_formula(j1, j2)


@pytest.mark.parametrize("j1,j2", [(half(3), half(3)),
                                   (half(7, 2), half(7, 2)),
                                   (half(7, 2), H12),
                                   (half(3), half(5, 2))], ids=str)
def test_alpha_table_matches_per_entry_formula_at_larger_spins(j1, j2):
    _assert_alpha_matches_per_entry_formula(j1, j2)


@pytest.mark.parametrize("n", range(-8, 9))
def test_integer_binomial_matches_falling_binomial(n):
    # R is built from this integer form of the extended binomial.
    for m in range(-1, 9):
        assert coupling._binomial(n, m) == falling_binomial(n, m)


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
    # C is built from Racah sums in a radical gauge; sl2_cgc is its
    # per-coefficient oracle, on every pair up to 7/2.
    for j1 in SPINS_TO_7_2:
        for j2 in SPINS_TO_7_2:
            c = cgc_matrix(j1, j2)
            for r, (n1, n2) in enumerate(product_labels(j1, j2)):
                for k, (j, m) in enumerate(coupled_labels(j1, j2)):
                    want = (sl2_cgc(j1, j2, j, n1, n2) if n1 + n2 == m
                            else RadScalar.zero())
                    assert c.entry(r, k) == HPoly.constant(want)


def test_coupling_matrices_and_reduced_elements_need_no_sl2_cgc(monkeypatch):
    # C comes from its own closed form and reduced_matrix_element reads
    # it; neither computes a coefficient through sl2_cgc.
    def refuse(*args):
        raise AssertionError(f"sl2_cgc{args} called")

    monkeypatch.setattr(coupling, "_sl2_cgc_cached", refuse)
    fresh = coupling._alpha_table_cached.__wrapped__(half(2), half(3, 2))
    assert fresh.cgc == alpha_table(2, half(3, 2)).cgc
    fam = boson_raising_family(half(3, 2))
    assert reduced_matrix_element(fam).value


# Storage fingerprints (SHA-256 prefix of repr((rows, cols, den, data,
# row_weights, col_weights))) of K, B and C for every pair up to 7/2, keyed
# by the doubled spins.  They were recorded from an entry-by-entry build
# (falling_binomial for R, sl2_cgc for every entry of C), so they pin the
# gauge builds to the defining formulas.
STORAGE_FINGERPRINTS = {
    (0, 0): ('45a709e69a9c7bef', '45a709e69a9c7bef', '45a709e69a9c7bef'),
    (0, 1): ('b021a44895021166', 'b021a44895021166', 'b021a44895021166'),
    (0, 2): ('ed2a1d906daf2ef4', 'ed2a1d906daf2ef4', 'ed2a1d906daf2ef4'),
    (0, 3): ('0e462032926ad8e9', '0e462032926ad8e9', '0e462032926ad8e9'),
    (0, 4): ('25a7a9e5b303f52e', '25a7a9e5b303f52e', '25a7a9e5b303f52e'),
    (0, 5): ('b7865c3735544620', 'b7865c3735544620', 'b7865c3735544620'),
    (0, 6): ('41504a968231c2b0', '41504a968231c2b0', '41504a968231c2b0'),
    (0, 7): ('5e8a884a6992a1eb', '5e8a884a6992a1eb', '5e8a884a6992a1eb'),
    (1, 0): ('b021a44895021166', 'b021a44895021166', 'b021a44895021166'),
    (1, 1): ('8e4b628c8745485e', 'c279105f3e93a51b', '384898eeb7a8d46a'),
    (1, 2): ('777194a4d0b2bf17', 'b89e9bdda271a039', '94f0c31c213c6748'),
    (1, 3): ('11d13e6f364fa1ff', 'be73a86d042ae500', '000f69a4ea8526a6'),
    (1, 4): ('b1845a3fd972c842', '01b7342ebe131898', '677d05500a85d594'),
    (1, 5): ('5cdaa3fb6c75b62a', 'ced2bc4e255193a2', '4abd6a56be16d0a1'),
    (1, 6): ('0272e17907611b3c', '156b1f80b56e7ec2', '84e57a1e6e61439c'),
    (1, 7): ('a7c9143fcde67265', '9b92b50388b27fa7', '07c9fc871bb7530c'),
    (2, 0): ('ed2a1d906daf2ef4', 'ed2a1d906daf2ef4', 'ed2a1d906daf2ef4'),
    (2, 1): ('deb9d73e4e4fcfd4', 'ec5082e8026ef1d6', 'b5d71053c2ef3c6b'),
    (2, 2): ('02d0efa41676aed2', 'cd448f53be07952c', 'da16e3cdd1db3a5b'),
    (2, 3): ('c56a8edb489ff76e', 'fa8a6419c418d921', 'f3c50191937ea270'),
    (2, 4): ('6032d087b03efa75', '481deb70e152f489', '90f39f4c44e1bfe6'),
    (2, 5): ('81363c10b54d645d', '0086be848e1bbe7e', '8eb83da72c9e5d20'),
    (2, 6): ('bb007515f25c09cc', 'd6eca219d0a30d18', '39e6f9a7f4e5a5ab'),
    (2, 7): ('840bdb83b40e1f4a', 'e5984a9139b9d201', 'd8ea6ff8831b3d26'),
    (3, 0): ('0e462032926ad8e9', '0e462032926ad8e9', '0e462032926ad8e9'),
    (3, 1): ('f2b2834da42e7af2', '55808758b866c507', 'dc2e45f1ca6b912f'),
    (3, 2): ('252306e1d6e0ed4a', '55fac204071d2525', 'b6a841deca6f65bb'),
    (3, 3): ('88d8339b423d584c', '8f12e78766bac2b1', 'bc948d2e85e536fe'),
    (3, 4): ('99e8acda8df2039d', '398bddcb488ff76d', '35185f55928e45c4'),
    (3, 5): ('35407045dd6da97e', '018b39f1826bd74f', '1f3624ca0a657872'),
    (3, 6): ('1a841d4789bc0e6d', 'c6ff32b2242f3804', '80c3aaa2213a047d'),
    (3, 7): ('ae2247844f57cc7a', '513cdfc7960887e9', '1fc2d8e1149a7a55'),
    (4, 0): ('25a7a9e5b303f52e', '25a7a9e5b303f52e', '25a7a9e5b303f52e'),
    (4, 1): ('66543d7c7f39c6c4', '27ab5b391ddc6f2b', '00d497be7fce3e23'),
    (4, 2): ('5fd543313cc6745c', 'bede5df4c55ebc16', 'a4f002e6dfb80287'),
    (4, 3): ('c12b10a01196cb3b', 'f7ea00b42965860d', '0a41e50418d62227'),
    (4, 4): ('e827a0ddf951a80c', '09e7c21c2e5a5f76', '7a9f44ab322392e9'),
    (4, 5): ('acf728e710d5aaf0', 'fab059a2a9dcf086', '2bb13c8e2e597836'),
    (4, 6): ('ed2b048f49bd9889', 'db89696aac0c73ec', 'dd154c449d327c9c'),
    (4, 7): ('c5bf1a9bb9afe086', 'e12bda9e5eeb9380', '845bbb564832d6d1'),
    (5, 0): ('b7865c3735544620', 'b7865c3735544620', 'b7865c3735544620'),
    (5, 1): ('51e0fa1bdfed1713', '870a2f9aca8e793a', '563d53bca65eaf12'),
    (5, 2): ('37c7ba251332a798', '261f293252fb9e90', '7f4b7f7d55e968f4'),
    (5, 3): ('5c8fd8e35cf208c0', '42882b0a240ad54b', '567da070bf8c320e'),
    (5, 4): ('06d39c06783c43a2', '8d52a3fe53016b88', '6753b1522e92c788'),
    (5, 5): ('742c9ec36c98733d', '978454bf9b895f3b', '87a8bd44d513792d'),
    (5, 6): ('3980be197121c05c', 'a1652cf4f0bda6a5', 'd4becca4bbf44bf3'),
    (5, 7): ('676945a7f675fe74', '0f16b377e55ac0bc', '21020e4c678e70e2'),
    (6, 0): ('41504a968231c2b0', '41504a968231c2b0', '41504a968231c2b0'),
    (6, 1): ('3878f0999648098e', '980f08cec44ddd99', '1aa482350ae5b4ad'),
    (6, 2): ('7baa73e7c7850f0d', 'c53de60393d1d406', 'd474635e56f478c3'),
    (6, 3): ('8d30acf56c4c4098', 'ecec106a89e98def', '87ab20ae7409c5f1'),
    (6, 4): ('c83e84285cdb2640', 'f50219419186203e', '9f911a6005829860'),
    (6, 5): ('508a96ec9a4d6557', '12c3d781505acb7b', 'b710a978c3e2c9c5'),
    (6, 6): ('342b5221b08d2659', '6baafceac09095d0', '350ce55fae7cf94b'),
    (6, 7): ('24440fc7f9ad6648', 'c124134d85209a6c', '3ae729fb2a4eb425'),
    (7, 0): ('5e8a884a6992a1eb', '5e8a884a6992a1eb', '5e8a884a6992a1eb'),
    (7, 1): ('40cf5282145bf05d', '0c6ec4351bb90a15', '1cd44293597f7a7a'),
    (7, 2): ('57d8f9bc1f8571c2', '4edf3b21c381cfb2', '3b2979c4ffa3b477'),
    (7, 3): ('2c9f58c3b18912af', 'f6afc1a3300fa167', 'e1c61fceff0f0d98'),
    (7, 4): ('12121635baf46639', '7765dca2a83fd250', '07eee566b3cc3f07'),
    (7, 5): ('ee994bcabbc7446f', '84fc3bc463d0cdd9', '91c5d6873e8c71b5'),
    (7, 6): ('fa792b9d568834d4', 'b70524a4b5cc928b', 'e653cf0d70d7c7f4'),
    (7, 7): ('3a000083e1fd4eb9', 'e0e3182a08e176c3', 'e009ec14c34fc1ed'),
}


def _storage_fingerprint(m: PolyMatrix) -> str:
    key = (m.rows, m.cols, m.den, m.data, m.row_weights, m.col_weights)
    return hashlib.sha256(repr(key).encode()).hexdigest()[:16]


def test_coupling_matrices_keep_their_storage():
    for (t1, t2), want in STORAGE_FINGERPRINTS.items():
        table = alpha_table(HalfInt.from_twice(t1), HalfInt.from_twice(t2))
        have = tuple(map(_storage_fingerprint,
                         (table.ket, table.bra, table.cgc)))
        assert have == want, (t1, t2)


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


def test_decompose_hands_out_a_fresh_list():
    first = decompose(half(1), H12)
    first.clear()
    assert decompose(half(1), H12) == [(half(3, 2), 1), (H12, 1)]


def test_failed_certification_raises_on_every_call(monkeypatch):
    real = coupling.casimir_eigenvalue
    monkeypatch.setattr(coupling, "casimir_eigenvalue", lambda j: real(j) + 1)
    coupling._certified_decomposition.cache_clear()
    for _ in range(2):
        with pytest.raises(ArithmeticError, match=r"j=1, m=1$"):
            decompose(H12, H12)


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
    # B K is formed once, on first read, and then kept with the memo.
    assert table._bra_ket is table._bra_ket
    with pytest.raises(AttributeError):
        table._bra_ket = PolyMatrix.zeros(9, 9)
    with pytest.raises(AttributeError):
        del table._bra_ket
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
