"""Operator families: fermionic and bosonic realizations, adjoint action."""

import hashlib
import re
from fractions import Fraction

import pytest

from jordanian.halfint import HalfInt, dim_of, half, weight_index, weight_range
from jordanian.hpoly import HPoly
from jordanian.irreps import (GenMatrices, Generator, irrep, ladder_factor,
                              relation_residuals)
from jordanian.polymatrix import PolyMatrix, anticommutator, commutator
from jordanian.radical import RadScalar
from jordanian.tensorops import (OpSpaceContext, TensorOpFamily,
                                 _adjoint_module, adjoint_action,
                                 boson_lowering_action,
                                 boson_lowering_family, boson_raising_action,
                                 boson_raising_family, boson_realization,
                                 boson_transfer_matrices, couple_tensor_ops,
                                 fermion_modes, fermion_realization,
                                 fermion_wigner_families, identity_family,
                                 rank1_generators, restrict_family,
                                 restrict_gens, verify_adjoint_is_representation,
                                 verify_boson_action,
                                 verify_fermion_sector_exchange,
                                 verify_tensor_operator)

H12 = half(1, 2)
H = HPoly.h(1)


# -- fermionic modes and quasi-spin -------------------------------------------

def test_fermion_mode_anticommutators():
    modes = fermion_modes()
    ident = PolyMatrix.identity(4)
    zero = PolyMatrix.zeros(4, 4)
    for a in ("1", "2"):
        for b in ("1", "2"):
            want = ident if a == b else zero
            assert anticommutator(modes[f"c{a}"], modes[f"c{b}+"]) == want
            assert anticommutator(modes[f"c{a}"], modes[f"c{b}"]) == zero
            assert anticommutator(modes[f"c{a}+"], modes[f"c{b}+"]) == zero
    assert (modes["c1+"] @ modes["c1+"]).is_zero
    assert (modes["c2"] @ modes["c2"]).is_zero


def test_fermion_quasi_spin_satisfies_relations():
    block, _, _ = fermion_realization()
    for name, residual in relation_residuals(block.gens):
        assert residual.is_zero, name
    # the exponential is exact because the raising generator squares to zero
    assert (block.gens.x @ block.gens.x).is_zero
    assert block.gens.ep @ block.gens.em == PolyMatrix.identity(4)
    assert block.gens.h == PolyMatrix.diagonal([-1, 0, 0, 1])


def test_fermion_families_frozen_matrices():
    _, fam_a, fam_b = fermion_realization()
    z = HPoly.zero()
    assert fam_a.rank == H12 and fam_b.rank == H12
    assert fam_a.component(H12) == PolyMatrix(
        [[z, z, z, z], [-1, z, z, z], [z, z, z, z], [z, z, -1, z]])
    assert fam_a.component(-H12) == PolyMatrix(
        [[z, z, -1, z], [-H, z, z, 1], [z, z, z, z], [z, z, z, z]])
    assert fam_b.component(H12) == PolyMatrix(
        [[z, z, z, z], [z, z, z, z], [1, z, z, z], [z, -1, z, z]])
    assert fam_b.component(-H12) == PolyMatrix(
        [[z, -1, z, z], [z, z, z, z], [H, z, z, -1], [z, z, z, z]])


def test_fermion_families_are_tensor_operators():
    _, fam_a, fam_b = fermion_realization()
    assert verify_tensor_operator(fam_a).ok
    assert verify_tensor_operator(fam_b).ok


def test_fermion_sector_exchange():
    block, fam_a, fam_b = fermion_realization()
    assert verify_fermion_sector_exchange(block, fam_a).ok
    assert verify_fermion_sector_exchange(block, fam_b).ok


def test_adjoint_action_is_a_representation_on_fock_operators():
    block, _, _ = fermion_realization()
    modes = fermion_modes()
    ctx = OpSpaceContext(source=block.gens, target=block.gens)
    samples = [modes["c1+"], modes["c2"], modes["c1+"] @ modes["c1"],
               PolyMatrix.identity(4)]
    report = verify_adjoint_is_representation(ctx, samples)
    assert report.ok
    assert report.counts()["pass"] == 3 * len(samples)


def _vec(t):
    return PolyMatrix([[p] for row in t.entries for p in row])


def _composed_residuals(ctx, t):
    """The three relation residuals on t as compositions of adjoint_action:
    the reference for the adjoint module."""
    def ad(g, x):
        return adjoint_action(g, x, ctx)

    gx, gy, gh = Generator.X, Generator.Y, Generator.H
    ep, em = Generator.EXP_HX, Generator.EXP_MHX
    r1 = ad(gx, ad(gy, t)) - ad(gy, ad(gx, t)) - ad(gh, t)
    sinh_t = (ad(ep, t) - ad(em, t)) * Fraction(1, 2)
    r2 = ad(gh, ad(gx, t)) - ad(gx, ad(gh, t)) - sinh_t.divide_h(1) * 2
    cosh_t_y = (ad(ep, ad(gy, t)) + ad(em, ad(gy, t))) * Fraction(1, 2)
    y_cosh_t = ad(gy, (ad(ep, t) + ad(em, t)) * Fraction(1, 2))
    r3 = ad(gh, ad(gy, t)) - ad(gy, ad(gh, t)) + y_cosh_t + cosh_t_y
    return [r1, r2, r3]


def _broken_target(gens):
    """gens with Y replaced by Y + X Y: no longer a module."""
    return GenMatrices(x=gens.x, y=gens.y + gens.x @ gens.y, h=gens.h,
                       ep=gens.ep, em=gens.em)


def _adjoint_cases():
    block, _, _ = fermion_realization()
    g = block.gens
    modes = list(fermion_modes().values())
    raising = boson_raising_family(half(1))
    return {
        "fermion modes": (OpSpaceContext(source=g, target=g), modes),
        "fermion modes, broken target": (
            OpSpaceContext(source=g, target=_broken_target(g)), modes),
        "boson raising, spin 1": (raising.ctx, list(raising.components)),
    }


@pytest.mark.parametrize("case", list(_adjoint_cases()))
def test_adjoint_module_matches_composed_adjoint_actions(case):
    ctx, samples = _adjoint_cases()[case]
    module = _adjoint_module(ctx)
    residuals = [r for _, r in relation_residuals(module)]
    for t in samples:
        for gen in (Generator.X, Generator.Y, Generator.H, Generator.EXP_HX,
                    Generator.EXP_MHX):
            assert module.of(gen) @ _vec(t) == _vec(adjoint_action(gen, t, ctx))
        for residual, want in zip(residuals, _composed_residuals(ctx, t)):
            assert residual @ _vec(t) == _vec(want)


def test_adjoint_check_fails_on_a_broken_target():
    ctx, samples = _adjoint_cases()["fermion modes, broken target"]
    report = verify_adjoint_is_representation(ctx, samples)
    cosh_rel = "[ad H, ad Y] = -(ad Y ad cosh + ad cosh ad Y)"
    assert [(c.name, c.detail) for c in report.failures()] == [
        (f"{cosh_rel} on sample 0",
         "residual degree 0; 1 of 16 entries nonzero; first (3,2) = (2)"),
        (f"{cosh_rel} on sample 1",
         "residual degree 0; 1 of 16 entries nonzero; first (3,1) = -(2)"),
        ("[ad X, ad Y] = ad H on sample 2",
         "residual degree 0; 1 of 16 entries nonzero; first (3,1) = -(1)"),
        ("[ad X, ad Y] = ad H on sample 3",
         "residual degree 0; 1 of 16 entries nonzero; first (3,2) = -(1)"),
    ]
    assert report.counts() == {"pass": 8, "fail": 4, "skip": 0}


def test_adjoint_action_of_unit_is_identity_map():
    block, fam_a, _ = fermion_realization()
    ctx = OpSpaceContext(source=block.gens, target=block.gens)
    from jordanian.irreps import Generator
    t = fam_a.component(H12)
    assert adjoint_action(Generator.UNIT, t, ctx) == t


def test_restricted_doublet_equals_canonical_spin_half():
    block, _, _ = fermion_realization()
    doublet = block.sectors["doublet"]
    sub = restrict_gens(block.gens, doublet, weights=(H12, -H12))
    rep = irrep(H12).gens()
    assert sub.x == rep.x and sub.y == rep.y and sub.h == rep.h
    assert sub.ep == rep.ep and sub.em == rep.em
    assert sub.weights == (H12, -H12)


def test_restrict_gens_rejects_non_invariant_subspace():
    block, _, _ = fermion_realization()
    with pytest.raises(ValueError):
        restrict_gens(block.gens, (0,))


def test_restrict_family_rejects_leaky_target():
    block, fam_a, _ = fermion_realization()
    doublet = block.sectors["doublet"]
    sing2 = restrict_gens(block.gens, block.sectors["singlet2"],
                          weights=(half(0),))
    source = restrict_gens(block.gens, doublet, weights=(H12, -H12))
    # family A maps the doublet into singlet1, so restricting its target to
    # singlet2 would silently drop matrix elements
    with pytest.raises(ValueError):
        restrict_family(fam_a, block.sectors["singlet2"], doublet,
                        sing2, source)


def test_fermion_wigner_families_frozen_rows():
    fa, fb = fermion_wigner_families()
    z = HPoly.zero()
    assert fa.ctx.source_j == H12 and fa.ctx.target_j == half(0)
    assert fa.component(H12) == PolyMatrix([[z, -1]])
    assert fa.component(-H12) == PolyMatrix([[1, -H]])
    assert fb.component(H12) == PolyMatrix([[z, 1]])
    assert fb.component(-H12) == PolyMatrix([[-1, H]])
    assert verify_tensor_operator(fa).ok
    assert verify_tensor_operator(fb).ok


# -- bosonic transfer matrices -------------------------------------------------

def test_boson_transfer_entries():
    b = boson_transfer_matrices(H12)
    up = b["b1+"]
    assert up.shape == (3, 2)
    #  b1+|1/2 1/2> = sqrt(2)|1 1>, b1+|1/2 -1/2> = |1 0>
    assert up.entry(0, 0) == HPoly.constant(RadScalar.sqrt(2))
    assert up.entry(1, 1) == HPoly.one()
    assert up.entry(2, 0) == HPoly.zero()
    dn = b["b2"]
    assert dn.shape == (1, 2)
    # b2|1/2 -1/2> = |0 0> and b2 kills the top state
    assert dn.entry(0, 1) == HPoly.one()
    assert dn.entry(0, 0) == HPoly.zero()


def test_boson_blocks_satisfy_mode_algebra():
    # [b_i, b_i+] = 1 and [b1, b2+] = 0, read across adjacent blocks
    for j in (H12, half(1), half(3, 2)):
        up = boson_transfer_matrices(j)
        above = boson_transfer_matrices(j + H12)
        below = boson_transfer_matrices(j - H12)
        ident = PolyMatrix.identity(dim_of(j))
        for mode, other in (("b1", "b2"), ("b2", "b1")):
            create, destroy = up[f"{mode}+"], above[mode]
            recreate = below[f"{mode}+"] if f"{mode}+" in below else None
            number = destroy @ create
            lowered = up[mode] if mode in up else None
            if lowered is not None and recreate is not None:
                assert number - recreate @ lowered == ident
            # b_other b_mode+ = b_mode+ b_other on the spin-j block
            cross = above[other] @ create
            cross2 = below[f"{mode}+"] @ up[other]
            assert cross == cross2
    # total number operator reads 2j on the spin-j block
    for j in (half(1), half(3, 2)):
        up = boson_transfer_matrices(j)
        above = boson_transfer_matrices(j + H12)
        n_total = above["b1"] @ up["b1+"] + above["b2"] @ up["b2+"]
        # n1 + n2 + 2 = 2j + 2 when counted through the upper block
        assert n_total == PolyMatrix.identity(dim_of(j)) * (j.twice + 2)


def test_boson_realization_shapes():
    block, raising, lowering = boson_realization(half(1))
    assert block.kind == "boson"
    assert block.labels == ("|2,0>", "|1,1>", "|0,2>")
    assert raising.ctx.source_j == half(1)
    assert raising.ctx.target_j == half(3, 2)
    assert lowering.ctx.target_j == H12
    with pytest.raises(ValueError):
        boson_lowering_family(0)


@pytest.mark.parametrize("j", [half(0), H12, half(1), half(3, 2)], ids=str)
def test_boson_raising_family_is_tensor_operator(j):
    assert verify_tensor_operator(boson_raising_family(j)).ok


def test_perturbed_family_fails_tensor_operator_check():
    fam = boson_raising_family(half(1))
    t_up, t_dn = fam.components
    i, k, value = t_up.first_nonzero()
    rows = [list(r) for r in t_up.entries]
    rows[i][k] = value + value * H
    bad = TensorOpFamily(rank=fam.rank, components=(PolyMatrix(rows), t_dn),
                         ctx=fam.ctx)
    report = verify_tensor_operator(bad)
    assert not report.ok
    assert any(re.fullmatch(r"ad [XYH] on component m=-?\d+(/\d+)?", c.name)
               for c in report.failures())


@pytest.mark.parametrize("j", [H12, half(1), half(3, 2)], ids=str)
def test_boson_lowering_family_is_tensor_operator(j):
    assert verify_tensor_operator(boson_lowering_family(j)).ok


@pytest.mark.parametrize("j", [H12, half(1), half(3, 2)], ids=str)
def test_boson_action_formulas(j):
    report = verify_boson_action(j)
    assert report.ok
    assert report.counts()["fail"] == 0
    # the two documented deviations of the lowering closed form both fire
    assert any("not 1" in n for n in report.notes) == (j >= half(1))
    assert any("not *" in n for n in report.notes)


def test_boson_action_notes_quote_derived_coefficients():
    notes = verify_boson_action(half(3, 2)).notes
    assert any("sqrt(3), not 1" in n for n in notes)
    assert any("* 3, not * 1" in n for n in notes)


def test_raising_action_matches_ladder_product_oracle():
    # Independent recomputation of t[+1/2]|j m>: expanding the unipotent
    # inverse as a geometric series gives coefficient
    #   (h/2)^n sqrt(j+m+1) * prod_i ladder(jt, m+1/2+i)
    # on |jt, m+1/2+n>; the closed form uses factorial ratios instead.
    for j in (H12, half(1), half(3, 2), half(2)):
        jt = j + H12
        for m in weight_range(j):
            up, _ = boson_raising_action(j, m)
            expected = {}
            fac = RadScalar.sqrt((j + m).as_int() + 1)
            n = 0
            while True:
                expected[m + H12 + n] = HPoly.h(n, fac * Fraction(1, 2**n))
                step = ladder_factor(jt, m + H12 + n, +1)
                if not step:
                    break
                fac = fac * step
                n += 1
            for mt in weight_range(jt):
                want = expected.get(mt, HPoly.zero())
                assert up.entry(weight_index(jt, mt), 0) == want


def test_lowering_action_matches_ladder_product_oracle():
    for j in (H12, half(1), half(3, 2), half(2)):
        jt = j - H12
        for m in weight_range(j):
            up, _ = boson_lowering_action(j, m)
            expected = {}
            start = RadScalar.sqrt((j - m).as_int())
            if start:
                fac = -start
                n = 0
                while True:
                    expected[m + H12 + n] = HPoly.h(n, fac * Fraction(1, 2**n))
                    step = ladder_factor(jt, m + H12 + n, +1)
                    if not step:
                        break
                    fac = fac * step
                    n += 1
            for mt in weight_range(jt):
                want = expected.get(mt, HPoly.zero())
                assert up.entry(weight_index(jt, mt), 0) == want


# -- rank-0 and rank-1 families -----------------------------------------------

def test_identity_family_is_rank_zero_tensor_operator():
    fam = identity_family(half(1))
    assert fam.rank == half(0)
    assert fam.component(0) == PolyMatrix.identity(3)
    assert verify_tensor_operator(fam).ok


def test_rank1_generator_family_frozen_spin_half():
    fam = rank1_generators(H12)
    z = HPoly.zero()
    r2h = RadScalar.sqrt(2) / 2
    assert fam.component(1) == PolyMatrix([[z, -1], [z, z]])
    assert fam.component(0) == PolyMatrix([[1, -H], [z, -1]]) * r2h
    assert fam.component(-1) == PolyMatrix(
        [[HPoly.h(1, Fraction(-1, 2)), HPoly.h(2, Fraction(1, 4))],
         [1, HPoly.h(1, Fraction(-3, 2))]])


@pytest.mark.parametrize("j", [H12, half(1), half(3, 2)], ids=str)
def test_rank1_generator_family_is_tensor_operator(j):
    assert verify_tensor_operator(rank1_generators(j)).ok


def test_rank1_family_vanishes_on_trivial_module():
    fam = rank1_generators(0)
    assert all(c.is_zero for c in fam.components)


def test_rank1_classical_limit_is_spherical_sl2_triple():
    # at h = 0 the family reduces to (-Zp, H/sqrt(2), Zm)
    for j in (H12, half(1)):
        fam = rank1_generators(j)
        rep = irrep(j)
        assert fam.component(1).eval_h(0) == -rep.zp
        assert fam.component(0).eval_h(0) == rep.hm * (RadScalar.sqrt(2) / 2)
        assert fam.component(-1).eval_h(0) == rep.zm


# -- coupling families ---------------------------------------------------------

def test_coupled_fermion_families():
    fa, fb = fermion_wigner_families()
    # B maps doublet -> singlet2; A does not compose after it (source
    # mismatch), but the full-module families do.
    _, full_a, full_b = fermion_realization()
    for rank in (half(0), half(1)):
        coupled = couple_tensor_ops(full_a, full_b, rank)
        assert coupled.rank == rank
        assert verify_tensor_operator(coupled).ok
    with pytest.raises(ValueError):
        couple_tensor_ops(full_a, full_b, half(2))
    with pytest.raises(ValueError):
        couple_tensor_ops(fa, fb, half(1))  # middle modules differ


def test_coupled_boson_raising_families():
    inner = boson_raising_family(H12)   # 1/2 -> 1
    outer = boson_raising_family(half(1))  # 1 -> 3/2
    coupled = couple_tensor_ops(outer, inner, half(1))
    assert coupled.ctx.source_j == H12
    assert coupled.ctx.target_j == half(3, 2)
    assert verify_tensor_operator(coupled).ok


def test_coupled_rank_zero_of_raising_lowering_is_scalar():
    # t(1)(a) t(1/2)(b) coupled to rank 0 must commute with every generator:
    # it is an intertwiner from spin 1/2 to itself, hence a scalar matrix.
    up = boson_raising_family(H12)      # 1/2 -> 1
    down = boson_lowering_family(half(1))  # 1 -> 1/2
    coupled = couple_tensor_ops(down, up, half(0))
    assert verify_tensor_operator(coupled).ok
    t = coupled.component(0)
    assert t.entry(0, 0) == t.entry(1, 1)
    assert not t.entry(0, 1) and not t.entry(1, 0)


# -- storage of the constructed families ---------------------------------------

# Storage fingerprints (SHA-256 prefix of repr((rows, cols, den, data,
# row_weights, col_weights))) of every component, recorded from the
# separately written raising and lowering builds and restrictions: boson
# families keyed by the doubled spin, then the two restricted fermion
# families and the three coupled families of the tensor-ops suite.
RAISING_FINGERPRINTS = {
    0: ('23e652424a151067', '488237f4f13ef633'),
    1: ('3cd60097d84f815f', '661af47707cdde03'),
    2: ('76b488a53ab20747', '079c1d8111116c45'),
    3: ('895d4bfe0981154c', '6c88eda7d62f02d0'),
    4: ('3f53ee9cd16e0189', '1394ece3cd0114ec'),
    5: ('ad5215e56151c759', 'e3014269998bae1d'),
    6: ('a4b37671c28646b9', '4ebf8ec467a0bd31'),
    7: ('3b96a628667d9f0d', '2e60e5342487e1cf'),
}
LOWERING_FINGERPRINTS = {
    1: ('fcd39f2283a2d24f', 'ddec5aadf699267f'),
    2: ('55eaab6b9353d075', '6d283c8c58329f4c'),
    3: ('93d522477bbccce9', '1129ff64f3563070'),
    4: ('55fea7a1f63623b2', '471eac76b20a697f'),
    5: ('47088ba619f5abe0', '2b312056dacad343'),
    6: ('3bcec62a0b610920', '2d6fbeea018fe4f4'),
    7: ('6531226006306443', '522af7f02955a629'),
}
RESTRICTED_FINGERPRINTS = (('23670eb1aeaa7e69', 'c5b603099f0dd437'),
                           ('8db916c57ff323b4', '4f8718705ab46dce'))
COUPLED_FINGERPRINTS = (
    ('8b89bdc7ad881891', 'f0190e5253018d01', '3ce2d990d5c97d13'),
    ('446e491bf7e9624b',),
    ('a258448aabb4550c', '167a14834adacee8', '5b37d8ef33686845'),
)


def _fingerprints(fam):
    return tuple(hashlib.sha256(repr(
        (t.rows, t.cols, t.den, t.data, t.row_weights, t.col_weights)
    ).encode()).hexdigest()[:16] for t in fam.components)


@pytest.mark.parametrize("build", [boson_raising_family, boson_lowering_family,
                                   rank1_generators],
                         ids=lambda f: f.__name__)
def test_memoized_families_are_shared_and_read_only(build):
    fam = build(1)
    assert build(HalfInt.from_twice(2)) is fam
    with pytest.raises(AttributeError):
        fam.components = ()
    with pytest.raises(AttributeError):
        fam.components[0].data = ()


def test_families_keep_their_storage():
    for twice, want in RAISING_FINGERPRINTS.items():
        fam = boson_raising_family(HalfInt.from_twice(twice))
        assert _fingerprints(fam) == want, twice
    for twice, want in LOWERING_FINGERPRINTS.items():
        fam = boson_lowering_family(HalfInt.from_twice(twice))
        assert _fingerprints(fam) == want, twice
    assert tuple(map(_fingerprints, fermion_wigner_families())) \
        == RESTRICTED_FINGERPRINTS
    _, fam_a, fam_b = fermion_realization()
    coupled = (couple_tensor_ops(fam_a, fam_b, 1),
               couple_tensor_ops(fam_a, fam_b, 0),
               couple_tensor_ops(boson_raising_family(1),
                                 boson_raising_family(H12), 1))
    assert tuple(map(_fingerprints, coupled)) == COUPLED_FINGERPRINTS
