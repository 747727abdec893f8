"""Adjoint action and irreducible tensor operators.

An operator t mapping a source module to a target module is acted on by the
quantum adjoint action

    ad c (t) = sum c_(1) t S(c_(2))

with the coproduct factors taken in the target and source modules
respectively.  A rank-r family {t_m : m = r..-r} is an irreducible tensor
operator when ad c(t_m) reproduces the spin-r matrix of c on the family,
for every generator c.

Three concrete realizations are provided: a fermionic two-mode Fock space
carrying spin 1/2 (+) two singlets, the two-boson ladder realization whose
spin-1/2 families shift the spin by +-1/2, and a rank-1 family written
directly in the algebra generators on any one module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coupling import coupled_ket, product_labels
from .halfint import HalfInt, as_half, dim_of, half, weight_index, weight_range
from .hpoly import HPoly
from .irreps import (GenMatrices, Generator, antipode_matrix, coproduct_terms,
                     irrep, sinh_hx)
from .polymatrix import PolyMatrix, unipotent_inverse
from .radical import RadScalar, sqrt_factorial_ratio
from .report import Report, zero_check


@dataclass(frozen=True)
class OpSpaceContext:
    """Source and target modules an operator family maps between."""

    source: GenMatrices
    target: GenMatrices

    @property
    def source_j(self) -> HalfInt:
        if self.source.weights is None:
            raise ValueError("source module carries no weight labels")
        return self.source.weights[0]

    @property
    def target_j(self) -> HalfInt:
        if self.target.weights is None:
            raise ValueError("target module carries no weight labels")
        return self.target.weights[0]


@dataclass(frozen=True)
class TensorOpFamily:
    """A candidate rank-`rank` tensor operator family.

    Components are ordered by the fixed weight convention m = rank..-rank.
    """

    rank: HalfInt
    components: tuple[PolyMatrix, ...]
    ctx: OpSpaceContext

    def component(self, m) -> PolyMatrix:
        return self.components[weight_index(self.rank, as_half(m))]

    @property
    def weights(self) -> tuple[HalfInt, ...]:
        return weight_range(self.rank)


def adjoint_action(gen: Generator, t: PolyMatrix, ctx: OpSpaceContext) -> PolyMatrix:
    """ad gen (t) = sum of target(c1) t S(c2)|source over the coproduct."""
    acc = None
    for a, b in coproduct_terms(gen):
        term = ctx.target.of(a) @ t @ antipode_matrix(b, ctx.source)
        acc = term if acc is None else acc + term
    return acc


def verify_adjoint_is_representation(ctx: OpSpaceContext, samples,
                                     label: str = "") -> Report:
    """The defining relations hold for the adjoint action on operators.

    [ad X, ad Y] = ad H; [ad H, ad X] = 2 ad sinh(hX)/h; and
    [ad H, ad Y] = -(ad Y ad cosh(hX) + ad cosh(hX) ad Y), checked on the
    given sample operators.
    """
    report = Report(f"adjoint action is a representation {label}".rstrip())

    def ad(g, t):
        return adjoint_action(g, t, ctx)

    ep, em = Generator.EXP_HX, Generator.EXP_MHX
    for idx, t in enumerate(samples):
        r1 = (ad(Generator.X, ad(Generator.Y, t))
              - ad(Generator.Y, ad(Generator.X, t))
              - ad(Generator.H, t))
        report.add(zero_check(f"[ad X, ad Y] = ad H on sample {idx}", r1))
        sinh_t = (ad(ep, t) - ad(em, t)) * Fraction(1, 2)
        r2 = (ad(Generator.H, ad(Generator.X, t))
              - ad(Generator.X, ad(Generator.H, t))
              - sinh_t.divide_h(1) * 2)
        report.add(zero_check(f"[ad H, ad X] = 2 ad sinh(hX)/h on sample {idx}", r2))
        cosh_t_y = (ad(ep, ad(Generator.Y, t))
                    + ad(em, ad(Generator.Y, t))) * Fraction(1, 2)
        y_cosh_t = ad(Generator.Y, (ad(ep, t) + ad(em, t)) * Fraction(1, 2))
        r3 = (ad(Generator.H, ad(Generator.Y, t))
              - ad(Generator.Y, ad(Generator.H, t))
              + y_cosh_t + cosh_t_y)
        report.add(zero_check(
            f"[ad H, ad Y] = -(ad Y ad cosh + ad cosh ad Y) on sample {idx}", r3))
    return report


def verify_tensor_operator(fam: TensorOpFamily, label: str = "") -> Report:
    """ad c(t_m) = sum_k D(c)[k, m] t_k with D the spin-`rank` matrices."""
    rep = irrep(fam.rank)
    dmats = {Generator.X: rep.x, Generator.Y: rep.y, Generator.H: rep.hm}
    report = Report(f"tensor operator check {label}".rstrip())
    for gen, dmat in dmats.items():
        for col, m in enumerate(fam.weights):
            lhs = adjoint_action(gen, fam.components[col], fam.ctx)
            rhs = None
            for row in range(len(fam.components)):
                coeff = dmat.entry(row, col)
                if not coeff:
                    continue
                term = fam.components[row] * coeff
                rhs = term if rhs is None else rhs + term
            if rhs is None:
                rhs = PolyMatrix.zeros(lhs.rows, lhs.cols)
            report.add(zero_check(f"ad {gen.value} on component m={m}", lhs - rhs))
    return report


# -- fermionic realization ---------------------------------------------------

@dataclass(frozen=True)
class FockBlock:
    """A finite Fock module with its generator matrices and irrep sectors."""

    kind: str
    labels: tuple[str, ...]
    gens: GenMatrices
    sectors: dict[str, tuple[int, ...]]


def fermion_modes() -> dict[str, PolyMatrix]:
    """Two fermionic modes on the basis |0>, c1|0>, c2|0>, c1 c2|0>
    (creation operators applied left to right)."""
    z = HPoly.zero()
    one = HPoly.one()

    def mat(cells):
        m = [[z] * 4 for _ in range(4)]
        for (i, k, v) in cells:
            m[i][k] = v
        return PolyMatrix(m)

    c1d = mat([(1, 0, one), (3, 2, one)])
    c2d = mat([(2, 0, one), (3, 1, -one)])
    return {
        "c1+": c1d,
        "c2+": c2d,
        "c1": c1d.transpose(),
        "c2": c2d.transpose(),
    }


def _fermion_data():
    modes = fermion_modes()
    c1d, c2d = modes["c1+"], modes["c2+"]
    c1, c2 = modes["c1"], modes["c2"]
    n1 = c1d @ c1
    n2 = c2d @ c2
    jp = c1d @ c2d  # quasi-spin raising: pairs the two modes
    jm = c2 @ c1
    ident = PolyMatrix.identity(4)
    j0 = n1 + n2 - ident
    h = HPoly.h(1, 1)
    gens = GenMatrices(x=jp, y=jm, h=j0, ep=ident + jp * h, em=ident - jp * h)
    return modes, n1, n2, gens


def fermion_realization() -> tuple[FockBlock, TensorOpFamily, TensorOpFamily]:
    """The four-dimensional fermionic module and its two spin-1/2 families.

    The quasi-spin generators pair the modes: the vacuum and the doubly
    occupied state span a spin-1/2 sector, the two singly occupied states
    span two singlet sectors.  Family A is built on the first mode, family
    B on the second; each swaps the spin-1/2 sector with one singlet.
    """
    modes, n1, n2, gens = _fermion_data()
    ident = PolyMatrix.identity(4)
    h = HPoly.h(1, 1)
    ctx = OpSpaceContext(source=gens, target=gens)
    fam_a = TensorOpFamily(
        rank=half(1, 2),
        components=(-modes["c1+"],
                    -modes["c2"] + ((n2 - ident) @ modes["c1+"]) * h),
        ctx=ctx)
    fam_b = TensorOpFamily(
        rank=half(1, 2),
        components=(modes["c2+"],
                    -modes["c1"] - ((n1 - ident) @ modes["c2+"]) * h),
        ctx=ctx)
    block = FockBlock(
        kind="fermion",
        labels=("|0>", "c1|0>", "c2|0>", "c1c2|0>"),
        gens=gens,
        sectors={"doublet": (3, 0), "singlet1": (1,), "singlet2": (2,)},
    )
    return block, fam_a, fam_b


def verify_fermion_sector_exchange(block: FockBlock, fam: TensorOpFamily,
                                   label: str = "") -> Report:
    """Every component maps the doublet into the singlets and vice versa."""
    doublet = block.sectors["doublet"]
    singlets = block.sectors["singlet1"] + block.sectors["singlet2"]
    report = Report(f"sector exchange {label}".rstrip())
    for m, t in zip(fam.weights, fam.components):
        report.add(zero_check(
            f"component m={m} kills doublet -> doublet matrix elements",
            t.submatrix(doublet, doublet)))
        report.add(zero_check(
            f"component m={m} kills singlet -> singlet matrix elements",
            t.submatrix(singlets, singlets)))
    return report


def restrict_gens(gens: GenMatrices, idx, weights=None) -> GenMatrices:
    """Restrict generator matrices to an invariant subspace.

    Raises if the selected rows/columns do not close under the generators.
    """
    idx = tuple(idx)
    complement = [i for i in range(gens.dim) if i not in set(idx)]
    mats = {}
    for name in ("x", "y", "h", "ep", "em"):
        m = getattr(gens, name)
        if complement:
            leak = m.submatrix(complement, idx)
            if not leak.is_zero:
                raise ValueError(f"subspace is not invariant under {name}")
        mats[name] = m.submatrix(idx, idx)
    ws = tuple(as_half(w) for w in weights) if weights is not None else None
    return GenMatrices(weights=ws, **mats)


def restrict_family(fam: TensorOpFamily, target_rows, source_cols,
                    target: GenMatrices, source: GenMatrices) -> TensorOpFamily:
    """Restrict a family to invariant sectors of its modules.

    Raises if any component leaks outside the selected target sector, i.e.
    if the restriction would lose matrix elements.
    """
    comps = []
    for m, t in zip(fam.weights, fam.components):
        complement = [i for i in range(t.rows) if i not in set(target_rows)]
        if complement:
            leak = t.submatrix(complement, source_cols)
            if not leak.is_zero:
                raise ValueError(
                    f"component m={m} maps the source sector outside the "
                    f"target sector")
        comps.append(t.submatrix(target_rows, source_cols))
    return TensorOpFamily(rank=fam.rank, components=tuple(comps),
                          ctx=OpSpaceContext(source=source, target=target))


# -- bosonic realization ------------------------------------------------------

def boson_transfer_matrices(j) -> dict[str, PolyMatrix]:
    """The two-boson mode matrices restricted to total number 2j -> 2j+-1.

    In the ladder basis |j m| = normalized (b1+)^(j+m) (b2+)^(j-m) |0>:
    b1+ raises (j, m) to (j+1/2, m+1/2) with sqrt(j+m+1), b2+ to
    (j+1/2, m-1/2) with sqrt(j-m+1); b1, b2 lower correspondingly.
    """
    j = as_half(j)
    up_j = j + half(1, 2)
    entries = {
        "b1+": (up_j, half(1, 2), lambda m: (j + m).as_int() + 1),
        "b2+": (up_j, half(-1, 2), lambda m: (j - m).as_int() + 1),
        "b1": (j - half(1, 2), half(-1, 2), lambda m: (j + m).as_int()),
        "b2": (j - half(1, 2), half(1, 2), lambda m: (j - m).as_int()),
    }
    out = {}
    for name, (jt, shift, weight_fn) in entries.items():
        if jt.twice < 0:
            continue
        rows = [[HPoly.zero()] * dim_of(j) for _ in range(dim_of(jt))]
        for col, m in enumerate(weight_range(j)):
            target_m = m + shift
            if abs(target_m.twice) > jt.twice:
                continue
            v = weight_fn(m)
            if v:
                rows[weight_index(jt, target_m)][col] = HPoly.constant(RadScalar.sqrt(v))
        out[name] = PolyMatrix(rows, weight_range(jt), weight_range(j))
    return out


def _resolvent(jt: HalfInt, inverse: bool) -> PolyMatrix:
    """(1 - (h/2) Zp)^{+-1} on the spin-jt module, exactly."""
    rep = irrep(jt)
    ident = PolyMatrix.identity(rep.dim, rep.weights)
    m = ident - rep.zp * HPoly.h(1, Fraction(1, 2))
    return unipotent_inverse(m) if inverse else m


def boson_raising_family(j) -> TensorOpFamily:
    """The spin-1/2 family mapping spin j to spin j+1/2:
    t[+1/2] = (1 - (h/2) Zp)^{-1} b1+ and
    t[-1/2] = (1 - (h/2) Zp) b2+ + (h/2)(t[+1/2] - b1+ H)."""
    j = as_half(j)
    jt = j + half(1, 2)
    b = boson_transfer_matrices(j)
    h_half = HPoly.h(1, Fraction(1, 2))
    t_up = _resolvent(jt, inverse=True) @ b["b1+"]
    t_dn = (_resolvent(jt, inverse=False) @ b["b2+"]
            + (t_up - b["b1+"] @ irrep(j).hm) * h_half)
    return TensorOpFamily(
        rank=half(1, 2), components=(t_up, t_dn),
        ctx=OpSpaceContext(source=irrep(j).gens(), target=irrep(jt).gens()))


def boson_lowering_family(j) -> TensorOpFamily:
    """The spin-1/2 family mapping spin j to spin j-1/2 (j >= 1/2):
    t[+1/2] = -(1 - (h/2) Zp)^{-1} b2 and
    t[-1/2] = (1 - (h/2) Zp) b1 + (h/2)(t[+1/2] + b2 H)."""
    j = as_half(j)
    if j.twice < 1:
        raise ValueError("the lowering family needs spin j >= 1/2")
    jt = j - half(1, 2)
    b = boson_transfer_matrices(j)
    h_half = HPoly.h(1, Fraction(1, 2))
    t_up = -(_resolvent(jt, inverse=True) @ b["b2"])
    t_dn = (_resolvent(jt, inverse=False) @ b["b1"]
            + (t_up + b["b2"] @ irrep(j).hm) * h_half)
    return TensorOpFamily(
        rank=half(1, 2), components=(t_up, t_dn),
        ctx=OpSpaceContext(source=irrep(j).gens(), target=irrep(jt).gens()))


def boson_realization(j) -> tuple[FockBlock, TensorOpFamily, TensorOpFamily]:
    """The spin-j two-boson block with its raising and lowering families.

    Raises for j = 0, where no lowering family exists; use
    boson_raising_family directly in that case.
    """
    j = as_half(j)
    block = FockBlock(
        kind="boson",
        labels=tuple(f"|{(j + m).as_int()},{(j - m).as_int()}>"
                     for m in weight_range(j)),
        gens=irrep(j).gens(),
        sectors={"ladder": tuple(range(dim_of(j)))},
    )
    return block, boson_raising_family(j), boson_lowering_family(j)


def _gamma_factor(j: HalfInt, m: HalfInt, n: int) -> RadScalar:
    """sqrt((j-m)! (j+m+n+1)! / ((j+m)! (j-m-n)!))."""
    return sqrt_factorial_ratio(
        fact_num=((j - m).as_int(), (j + m).as_int() + n + 1),
        fact_den=((j + m).as_int(), (j - m).as_int() - n))


def _lambda_factor(j: HalfInt, m: HalfInt, n: int) -> RadScalar:
    """sqrt((j-m)! (j+m+n)! / ((j+m)! (j-m-n-1)!))."""
    return sqrt_factorial_ratio(
        fact_num=((j - m).as_int(), (j + m).as_int() + n),
        fact_den=((j + m).as_int(), (j - m).as_int() - n - 1))


def _ket_sum(jt: HalfInt, terms) -> PolyMatrix:
    rows = [[HPoly.zero()] for _ in range(dim_of(jt))]
    for m, coeff in terms:
        rows[weight_index(jt, m)][0] += coeff
    return PolyMatrix(rows)


def boson_raising_action(j, m) -> tuple[PolyMatrix, PolyMatrix]:
    """Closed-form action of the raising family on |j m>, as target columns
    (t[+1/2]|j m>, t[-1/2]|j m>)."""
    j, m = as_half(j), as_half(m)
    jt = j + half(1, 2)
    up_terms = []
    for n in range((j - m).as_int() + 1):
        coeff = HPoly.h(n, _gamma_factor(j, m, n) * Fraction(1, 2**n))
        up_terms.append((m + half(1, 2) + n, coeff))
    dn_terms = [(m - half(1, 2),
                 HPoly.constant(RadScalar.sqrt((j - m).as_int() + 1)))]
    mid = RadScalar.sqrt((j + m).as_int() + 1) * Fraction(-(j + m).as_int(), 2)
    dn_terms.append((m + half(1, 2), HPoly.h(1, mid)))
    for n in range(1, (j - m).as_int() + 1):
        coeff = HPoly.h(n + 1, _gamma_factor(j, m, n) * Fraction(1, 2**(n + 1)))
        dn_terms.append((m + half(1, 2) + n, coeff))
    return _ket_sum(jt, up_terms), _ket_sum(jt, dn_terms)


def boson_lowering_action(j, m) -> tuple[PolyMatrix, PolyMatrix]:
    """Closed-form action of the lowering family on |j m>, as target columns.

    These coefficients are derived from the operator definition itself (see
    verify_boson_action, which cross-checks them against the matrices): the
    m-1/2 term carries sqrt(j+m), the single h-linear term carries
    -(h/2) sqrt(j-m) (j-m+1), and the tail repeats the t[+1/2] pattern.
    """
    j, m = as_half(j), as_half(m)
    jt = j - half(1, 2)
    up_terms = []
    for n in range((j - m).as_int()):
        coeff = HPoly.h(n, -(_lambda_factor(j, m, n) * Fraction(1, 2**n)))
        up_terms.append((m + half(1, 2) + n, coeff))
    dn_terms = []
    if (j + m).as_int() > 0:
        dn_terms.append((m - half(1, 2),
                         HPoly.constant(RadScalar.sqrt((j + m).as_int()))))
    if abs((m + half(1, 2)).twice) <= jt.twice:
        mid = RadScalar.sqrt((j - m).as_int()) * Fraction(-((j - m).as_int() + 1), 2)
        dn_terms.append((m + half(1, 2), HPoly.h(1, mid)))
    for n in range(1, (j - m).as_int()):
        coeff = HPoly.h(n + 1, -(_lambda_factor(j, m, n) * Fraction(1, 2**(n + 1))))
        dn_terms.append((m + half(1, 2) + n, coeff))
    return _ket_sum(jt, up_terms), _ket_sum(jt, dn_terms)


def verify_boson_action(j) -> Report:
    """Columns of the boson families match the closed-form actions.

    For the lowering family the first two coefficient patterns of the
    commonly quoted closed form differ from what the operator definition
    produces; the report notes the discrepancy (with the derived values)
    and asserts the derived form.
    """
    j = as_half(j)
    report = Report(f"boson action formulas at spin {j}")
    raising = boson_raising_family(j)
    for col, m in enumerate(weight_range(j)):
        want_up, want_dn = boson_raising_action(j, m)
        report.add(zero_check(f"raising t[+1/2] on |{j} {m}>",
                              raising.components[0].column(col) - want_up))
        report.add(zero_check(f"raising t[-1/2] on |{j} {m}>",
                              raising.components[1].column(col) - want_dn))
    if j.twice < 1:
        return report
    lowering = boson_lowering_family(j)
    jt = j - half(1, 2)
    for col, m in enumerate(weight_range(j)):
        want_up, want_dn = boson_lowering_action(j, m)
        report.add(zero_check(f"lowering t[+1/2] on |{j} {m}>",
                              lowering.components[0].column(col) - want_up))
        report.add(zero_check(f"lowering t[-1/2] on |{j} {m}> (derived form)",
                              lowering.components[1].column(col) - want_dn))
        # The commonly quoted closed form writes the leading coefficient as
        # 1 (for sqrt(j+m)) and the h-linear one as -(h/2) sqrt(j-m) (j-m-1)
        # attached to a shifted ket; record how the exact action differs.
        if (j + m).as_int() > 0 and RadScalar.sqrt((j + m).as_int()) != RadScalar.one():
            report.note(
                f"lowering t[-1/2]|{j} {m}>: coefficient of |{jt} {m - half(1, 2)}> "
                f"is sqrt({(j + m).as_int()}), not 1")
        if abs((m + half(1, 2)).twice) <= jt.twice:
            derived = Fraction(-((j - m).as_int() + 1), 2)
            quoted = Fraction(-((j - m).as_int() - 1), 2)
            if derived != quoted:
                report.note(
                    f"lowering t[-1/2]|{j} {m}>: h-coefficient of "
                    f"|{jt} {m + half(1, 2)}> is -(1/2) sqrt({(j - m).as_int()})"
                    f" * {(j - m).as_int() + 1}, not * {(j - m).as_int() - 1}")
    return report


def fermion_wigner_families() -> tuple[TensorOpFamily, TensorOpFamily]:
    """The fermionic families restricted to their irreducible sector pairs.

    Family A maps the quasi-spin doublet into the first singlet, family B
    into the second; the restrictions are leak-checked.
    """
    block, fam_a, fam_b = fermion_realization()
    doublet = block.sectors["doublet"]
    source = restrict_gens(block.gens, doublet,
                           weights=(half(1, 2), half(-1, 2)))
    sing1 = restrict_gens(block.gens, block.sectors["singlet1"],
                          weights=(half(0),))
    sing2 = restrict_gens(block.gens, block.sectors["singlet2"],
                          weights=(half(0),))
    fa = restrict_family(fam_a, block.sectors["singlet1"], doublet,
                         sing1, source)
    fb = restrict_family(fam_b, block.sectors["singlet2"], doublet,
                         sing2, source)
    return fa, fb


def identity_family(j) -> TensorOpFamily:
    """The rank-0 family whose single component is the identity operator."""
    g = irrep(as_half(j)).gens()
    return TensorOpFamily(
        rank=half(0),
        components=(PolyMatrix.identity(g.dim, g.weights),),
        ctx=OpSpaceContext(source=g, target=g))


# -- rank-1 family in the algebra generators ---------------------------------

def rank1_generators(j) -> TensorOpFamily:
    """The rank-1 family on one module, written in the generators:
    t[1] = -e^{hX} sinh(hX)/h, t[0] = e^{hX} H / sqrt(2),
    t[-1] = e^{-hX/2} Y e^{-hX/2} + (h/2) e^{hX/2} H e^{hX/2} - (h/2) H^2."""
    rep = irrep(j)
    g = rep.gens()
    sh_over_h = sinh_hx(g).divide_h(1)
    e_half, e_mhalf = rep.exp_half_hx, rep.exp_mhalf_hx
    t_plus = -(g.ep @ sh_over_h)
    t_zero = (g.ep @ g.h) * (RadScalar.sqrt(2) / 2)
    t_minus = (e_mhalf @ g.y @ e_mhalf
               + (e_half @ g.h @ e_half) * HPoly.h(1, Fraction(1, 2))
               - (g.h @ g.h) * HPoly.h(1, Fraction(1, 2)))
    return TensorOpFamily(rank=half(1), components=(t_plus, t_zero, t_minus),
                          ctx=OpSpaceContext(source=g, target=g))


def couple_tensor_ops(fam_a: TensorOpFamily, fam_b: TensorOpFamily,
                      j) -> TensorOpFamily:
    """Couple two composable families to total rank j.

    fam_b acts first; its target module must be fam_a's source module.
    Components are the deformed-CGC combinations of the products, mirroring
    the coupled-basis construction on the operator space: the coefficients
    of component m are the coupled ket |j m> (a column of K C).  A rank j
    outside the coupling range raises SelectionRuleError.
    """
    j = as_half(j)
    ja, jb = fam_a.rank, fam_b.rank
    if fam_a.ctx.source.x.shape != fam_b.ctx.target.x.shape or \
            fam_a.ctx.source.x != fam_b.ctx.target.x:
        raise ValueError("families do not compose: middle modules differ")
    comps = []
    for m in weight_range(j):
        acc = None
        column = coupled_ket(ja, jb, j, m).entries
        for (k1, k2), (c,) in zip(product_labels(ja, jb), column):
            if not c:
                continue
            term = (fam_a.component(k1) @ fam_b.component(k2)) * c
            acc = term if acc is None else acc + term
        if acc is None:
            acc = PolyMatrix.zeros(fam_a.ctx.target.dim, fam_b.ctx.source.dim)
        comps.append(acc)
    return TensorOpFamily(rank=j, components=tuple(comps),
                          ctx=OpSpaceContext(source=fam_b.ctx.source,
                                             target=fam_a.ctx.target))
