"""Adjoint action and irreducible tensor operators.

An operator t mapping a source module to a target module is acted on by the
quantum adjoint action

    ad c (t) = sum c_(1) t S(c_(2))

with the coproduct factors taken in the target and source modules
respectively.  A rank-r family {t_m : m = r..-r} is an irreducible tensor
operator when ad c(t_m) reproduces the spin-r matrix of c on the family,
for every generator c.

The operators themselves form a module: on the row-major vec(t),
vec(A t B) = kron(A, B^T) vec(t), so ad c is the matrix
sum kron(c_(1), S(c_(2))^T) over the coproduct, and the adjoint action is
a representation exactly when these matrices satisfy the defining
relations (irreps.relation_residuals).

Three concrete realizations are provided: a fermionic two-mode Fock space
carrying spin 1/2 (+) two singlets, the two-boson ladder realization whose
spin-1/2 families shift the spin by +-1/2, and a rank-1 family written
directly in the algebra generators on any one module.  Both boson families
follow one rule: from transfer matrices a, b into spin jt,
t[+1/2] = M^-1 a and t[-1/2] = M b + (h/2)(t[+1/2] - a H) with
M = 1 - (h/2) Zp on spin jt; raising takes (a, b) = (b1+, b2+), lowering
(-b2, b1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .coupling import coupled_ket, product_labels
from .halfint import HalfInt, as_half, dim_of, half, weight_index, weight_range
from .hpoly import HPoly
from .irreps import (GenMatrices, Generator, antipode_matrix, coproduct_terms,
                     irrep, relation_residuals, sinh_hx)
from .polymatrix import PolyMatrix, _msum, kron, unipotent_inverse
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
    return _msum(ctx.target.of(a) @ t @ antipode_matrix(b, ctx.source)
                 for a, b in coproduct_terms(gen))


def _adjoint_module(ctx: OpSpaceContext) -> GenMatrices:
    """ad c for c = X, Y, H, e^{+-hX} as matrices on the row-major vec(t):
    the sum of kron(target(c1), S(c2)|source^T) over the coproduct."""
    def ad(gen):
        return _msum(kron(ctx.target.of(a),
                          antipode_matrix(b, ctx.source).transpose())
                     for a, b in coproduct_terms(gen))
    return GenMatrices(x=ad(Generator.X), y=ad(Generator.Y), h=ad(Generator.H),
                       ep=ad(Generator.EXP_HX), em=ad(Generator.EXP_MHX))


# Check names, in the order of irreps.relation_residuals.
_ADJOINT_RELATIONS = ("[ad X, ad Y] = ad H", "[ad H, ad X] = 2 ad sinh(hX)/h",
                      "[ad H, ad Y] = -(ad Y ad cosh + ad cosh ad Y)")


def verify_adjoint_is_representation(ctx: OpSpaceContext, samples,
                                     label: str = "") -> Report:
    """The defining relations hold for the adjoint action on operators.

    [ad X, ad Y] = ad H; [ad H, ad X] = 2 ad sinh(hX)/h; and
    [ad H, ad Y] = -(ad Y ad cosh(hX) + ad cosh(hX) ad Y), checked on the
    given sample operators: each relation residual of the adjoint module,
    applied to vec(t) and read back in the shape of t.
    """
    report = Report(f"adjoint action is a representation {label}".rstrip())
    residuals = relation_residuals(_adjoint_module(ctx))
    rw, cw = ctx.target.x.row_weights, ctx.source.x.col_weights
    for idx, t in enumerate(samples):
        vec = PolyMatrix([[p] for row in t.entries for p in row])
        for name, (_, residual) in zip(_ADJOINT_RELATIONS, residuals):
            r = (residual @ vec).entries
            report.add(zero_check(f"{name} on sample {idx}", PolyMatrix(
                [[r[i * t.cols + k][0] for k in range(t.cols)]
                 for i in range(t.rows)], rw, cw)))
    return report


def verify_tensor_operator(fam: TensorOpFamily, label: str = "") -> Report:
    """ad c(t_m) = sum_k D(c)[k, m] t_k with D the spin-`rank` matrices."""
    rep = irrep(fam.rank)
    dmats = {Generator.X: rep.x, Generator.Y: rep.y, Generator.H: rep.hm}
    report = Report(f"tensor operator check {label}".rstrip())
    for gen, dmat in dmats.items():
        for col, m in enumerate(fam.weights):
            lhs = adjoint_action(gen, fam.components[col], fam.ctx)
            rhs = _msum((t * dmat.entry(row, col)
                         for row, t in enumerate(fam.components)
                         if dmat.entry(row, col)),
                        PolyMatrix.zeros(lhs.rows, lhs.cols))
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


def fermion_realization() -> tuple[FockBlock, TensorOpFamily, TensorOpFamily]:
    """The four-dimensional fermionic module and its two spin-1/2 families.

    The quasi-spin generators pair the modes: the vacuum and the doubly
    occupied state span a spin-1/2 sector, the two singly occupied states
    span two singlet sectors.  Family A is built on the first mode, family
    B on the second; each swaps the spin-1/2 sector with one singlet.
    """
    modes = fermion_modes()
    n1 = modes["c1+"] @ modes["c1"]
    n2 = modes["c2+"] @ modes["c2"]
    jp = modes["c1+"] @ modes["c2+"]  # quasi-spin raising: pairs the two modes
    ident = PolyMatrix.identity(4)
    h = HPoly.h(1, 1)
    gens = GenMatrices(x=jp, y=modes["c2"] @ modes["c1"], h=n1 + n2 - ident,
                       ep=ident + jp * h, em=ident - jp * h)
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


def _restrict(m: PolyMatrix, rows, cols, error: str) -> PolyMatrix:
    """m on the selected rows and columns; ValueError(error) if m maps the
    selected columns outside the selected rows."""
    keep = set(rows)
    complement = [i for i in range(m.rows) if i not in keep]
    if complement and not m.submatrix(complement, cols).is_zero:
        raise ValueError(error)
    return m.submatrix(rows, cols)


def restrict_gens(gens: GenMatrices, idx, weights=None) -> GenMatrices:
    """Restrict generator matrices to an invariant subspace.

    Raises if the selected rows/columns do not close under the generators.
    """
    idx = tuple(idx)
    mats = {name: _restrict(getattr(gens, name), idx, idx,
                            f"subspace is not invariant under {name}")
            for name in ("x", "y", "h", "ep", "em")}
    ws = tuple(as_half(w) for w in weights) if weights is not None else None
    return GenMatrices(weights=ws, **mats)


def restrict_family(fam: TensorOpFamily, target_rows, source_cols,
                    target: GenMatrices, source: GenMatrices) -> TensorOpFamily:
    """Restrict a family to invariant sectors of its modules.

    Raises if any component leaks outside the selected target sector, i.e.
    if the restriction would lose matrix elements.
    """
    comps = tuple(_restrict(t, target_rows, source_cols,
                            f"component m={m} maps the source sector outside "
                            f"the target sector")
                  for m, t in zip(fam.weights, fam.components))
    return TensorOpFamily(rank=fam.rank, components=comps,
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


def _boson_family(j: HalfInt, jt: HalfInt, a: PolyMatrix,
                  b: PolyMatrix) -> TensorOpFamily:
    """The spin-1/2 family from spin j to spin jt built from the transfer
    matrices a, b: t[+1/2] = M^-1 a and t[-1/2] = M b + (h/2)(t[+1/2] - a H),
    with M = 1 - (h/2) Zp on spin jt."""
    rep, h_half = irrep(jt), HPoly.h(1, Fraction(1, 2))
    m = PolyMatrix.identity(rep.dim, rep.weights) - rep.zp * h_half
    t_up = unipotent_inverse(m) @ a
    t_dn = m @ b + (t_up - a @ irrep(j).hm) * h_half
    return TensorOpFamily(
        rank=half(1, 2), components=(t_up, t_dn),
        ctx=OpSpaceContext(source=irrep(j).gens(), target=rep.gens()))


def boson_raising_family(j) -> TensorOpFamily:
    """The spin-1/2 family mapping spin j to spin j+1/2:
    t[+1/2] = (1 - (h/2) Zp)^{-1} b1+ and
    t[-1/2] = (1 - (h/2) Zp) b2+ + (h/2)(t[+1/2] - b1+ H).
    Memoized per spin; the family is immutable."""
    return _boson_raising_cached(as_half(j))


@lru_cache(maxsize=None)
def _boson_raising_cached(j: HalfInt) -> TensorOpFamily:
    b = boson_transfer_matrices(j)
    return _boson_family(j, j + half(1, 2), b["b1+"], b["b2+"])


def boson_lowering_family(j) -> TensorOpFamily:
    """The spin-1/2 family mapping spin j to spin j-1/2 (j >= 1/2):
    t[+1/2] = -(1 - (h/2) Zp)^{-1} b2 and
    t[-1/2] = (1 - (h/2) Zp) b1 + (h/2)(t[+1/2] + b2 H).
    Memoized per spin; the family is immutable."""
    return _boson_lowering_cached(as_half(j))


@lru_cache(maxsize=None)
def _boson_lowering_cached(j: HalfInt) -> TensorOpFamily:
    if j.twice < 1:
        raise ValueError("the lowering family needs spin j >= 1/2")
    b = boson_transfer_matrices(j)
    return _boson_family(j, j - half(1, 2), -b["b2"], b["b1"])


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


def _factorial_ratio(j: HalfInt, m: HalfInt, n: int, k: int) -> RadScalar:
    """sqrt((j-m)! (j+m+n+k)! / ((j+m)! (j-m-n-1+k)!)); k = 1 for the
    raising family, k = 0 for the lowering family."""
    return sqrt_factorial_ratio(
        fact_num=((j - m).as_int(), (j + m).as_int() + n + k),
        fact_den=((j + m).as_int(), (j - m).as_int() - n - 1 + k))


def _action_columns(jt: HalfInt, m: HalfInt, ups, lead: RadScalar,
                    mid: RadScalar) -> tuple[PolyMatrix, PolyMatrix]:
    """(t[+1/2]|j m>, t[-1/2]|j m>) as columns over spin jt, where
    t[+1/2]|j m> = sum_n ups[n] (h/2)^n |jt m+1/2+n> and t[-1/2]|j m> =
    lead |jt m-1/2> + mid h |jt m+1/2> + (h/2) (the n >= 1 terms of
    t[+1/2]|j m>).  Zero coefficients are dropped, so they may sit off the
    ladder."""
    up = [(m + half(1, 2) + n, HPoly.h(n, c * Fraction(1, 2**n)))
          for n, c in enumerate(ups)]
    dn = [(m - half(1, 2), HPoly.constant(lead)),
          (m + half(1, 2), HPoly.h(1, mid))]
    dn += [(mt, c * HPoly.h(1, Fraction(1, 2))) for mt, c in up[1:]]
    columns = []
    for terms in (up, dn):
        rows = [[HPoly.zero()] for _ in range(dim_of(jt))]
        for mt, coeff in terms:
            if coeff:
                rows[weight_index(jt, mt)][0] += coeff
        columns.append(PolyMatrix(rows))
    return tuple(columns)


def boson_raising_action(j, m) -> tuple[PolyMatrix, PolyMatrix]:
    """Closed-form action of the raising family on |j m>, as target columns
    (t[+1/2]|j m>, t[-1/2]|j m>)."""
    j, m = as_half(j), as_half(m)
    return _action_columns(
        j + half(1, 2), m,
        [_factorial_ratio(j, m, n, 1) for n in range((j - m).as_int() + 1)],
        RadScalar.sqrt((j - m).as_int() + 1),
        RadScalar.sqrt((j + m).as_int() + 1) * Fraction(-(j + m).as_int(), 2))


def boson_lowering_action(j, m) -> tuple[PolyMatrix, PolyMatrix]:
    """Closed-form action of the lowering family on |j m>, as target columns.

    These coefficients are derived from the operator definition itself (see
    verify_boson_action, which cross-checks them against the matrices): the
    m-1/2 term carries sqrt(j+m), the single h-linear term carries
    -(h/2) sqrt(j-m) (j-m+1), and the tail repeats the t[+1/2] pattern.
    """
    j, m = as_half(j), as_half(m)
    return _action_columns(
        j - half(1, 2), m,
        [-_factorial_ratio(j, m, n, 0) for n in range((j - m).as_int())],
        RadScalar.sqrt((j + m).as_int()),
        RadScalar.sqrt((j - m).as_int()) * Fraction(-((j - m).as_int() + 1), 2))


def verify_boson_action(j) -> Report:
    """Columns of the boson families match the closed-form actions.

    For the lowering family the first two coefficient patterns of the
    commonly quoted closed form differ from what the operator definition
    produces; the report notes the discrepancy (with the derived values)
    and asserts the derived form.
    """
    j = as_half(j)
    report = Report(f"boson action formulas at spin {j}")
    families = [("raising", boson_raising_family, boson_raising_action, "")]
    if j.twice >= 1:
        families.append(("lowering", boson_lowering_family,
                         boson_lowering_action, " (derived form)"))
    for name, family, action, form in families:
        t_up, t_dn = family(j).components
        for col, m in enumerate(weight_range(j)):
            want_up, want_dn = action(j, m)
            report.add(zero_check(f"{name} t[+1/2] on |{j} {m}>",
                                  t_up.column(col) - want_up))
            report.add(zero_check(f"{name} t[-1/2] on |{j} {m}>{form}",
                                  t_dn.column(col) - want_dn))
    if j.twice < 1:
        return report
    jt = j - half(1, 2)
    for m in weight_range(j):
        # The commonly quoted closed form writes the leading coefficient as
        # 1 (for sqrt(j+m)) and the h-linear one as -(h/2) sqrt(j-m) (j-m-1)
        # attached to a shifted ket; record how the exact action differs.
        if (j + m).as_int() > 1:
            report.note(
                f"lowering t[-1/2]|{j} {m}>: coefficient of |{jt} {m - half(1, 2)}> "
                f"is sqrt({(j + m).as_int()}), not 1")
        if abs((m + half(1, 2)).twice) <= jt.twice:
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
    return tuple(restrict_family(
        fam, block.sectors[name], doublet,
        restrict_gens(block.gens, block.sectors[name], weights=(half(0),)),
        source) for fam, name in ((fam_a, "singlet1"), (fam_b, "singlet2")))


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
    t[-1] = e^{-hX/2} Y e^{-hX/2} + (h/2) e^{hX/2} H e^{hX/2} - (h/2) H^2.
    Memoized per spin; the family is immutable."""
    return _rank1_cached(as_half(j))


@lru_cache(maxsize=None)
def _rank1_cached(j: HalfInt) -> TensorOpFamily:
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
    zero = PolyMatrix.zeros(fam_a.ctx.target.dim, fam_b.ctx.source.dim)
    comps = tuple(
        _msum(((fam_a.component(k1) @ fam_b.component(k2)) * c
               for (k1, k2), (c,) in zip(product_labels(ja, jb),
                                         coupled_ket(ja, jb, j, m).entries)
               if c), zero)
        for m in weight_range(j))
    return TensorOpFamily(rank=j, components=comps,
                          ctx=OpSpaceContext(source=fam_b.ctx.source,
                                             target=fam_a.ctx.target))
