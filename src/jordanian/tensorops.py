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
(-b2, b1).  The transfer matrices and the closed-form actions the families
are held to (verify_boson_action) are integer matrices in the ladder gauges,
built straight into graded storage (irreps._ladder_map); a family's T
(TensorOpFamily.columns) is its components' graded rows side by side.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, perm
from types import MappingProxyType

from .coupling import alpha_table, coupled_ket, product_labels, slot_sums
from .halfint import (HalfInt, as_half, dim_of, half, spin_memo, weight_index,
                      weight_range)
from .hpoly import HPoly
from .irreps import (GenMatrices, Generator, _ladder_map, antipode_matrix,
                     coproduct_terms, irrep, relation_residuals, sinh_hx)
from .polymatrix import (PolyMatrix, _bases, _beside, _msum, kron, lincomb,
                         unipotent_inverse)
from .radical import RadScalar
from .record import Frozen, Record
from .report import Report, residual_checks, zero_check


class OpSpaceContext(Frozen, Record):
    """Source and target modules an operator family maps between."""

    def __init__(self, source: GenMatrices, target: GenMatrices):
        vars(self).update(source=source, target=target)

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


class TensorOpFamily(Frozen, Record):
    """A candidate rank-`rank` tensor operator family.

    Components are ordered by the fixed weight convention m = rank..-rank.
    """

    def __init__(self, rank: HalfInt, components: tuple[PolyMatrix, ...],
                 ctx: OpSpaceContext):
        vars(self).update(rank=rank, components=components, ctx=ctx)

    def component(self, m) -> PolyMatrix:
        return self.components[weight_index(self.rank, as_half(m))]

    @property
    def weights(self) -> tuple[HalfInt, ...]:
        return weight_range(self.rank)

    # The matrices the Wigner-Eckart verifiers read, each formed on first
    # use and kept on the family, as an AlphaTable keeps its products.

    @cached_property
    def columns(self) -> PolyMatrix:
        """T, with t_{m1}|j2 m2> as column (m1, m2) in product order: the
        components' graded rows side by side in K's row basis, else their
        entries side by side."""
        return _beside(self.components, _bases(self._ket)[0]) or PolyMatrix(
            [[p for comp in self.components for p in comp.entries[row]]
             for row in range(self.ctx.target.dim)])

    @property
    def _ket(self) -> PolyMatrix:
        return alpha_table(self.rank, self.ctx.source_j).ket

    @cached_property
    def phi(self) -> PolyMatrix:
        """Phi = T K: the alpha-combinations phi(n1, n2) as columns."""
        return self.columns @ self._ket

    @cached_property
    def ladder_sides(self) -> tuple[tuple[PolyMatrix, PolyMatrix], ...]:
        """(Z Phi, Phi S) for Z = H, Zp, Zm of the target spin's module and
        the classical slot sums S; meaningful on a ladder-basis target."""
        rep = irrep(self.ctx.target_j)
        sp, sm, sh = slot_sums(self.rank, self.ctx.source_j)
        return tuple((z @ self.phi, self.phi @ s)
                     for z, s in ((rep.hm, sh), (rep.zp, sp), (rep.zm, sm)))


def adjoint_action(gen: Generator, t: PolyMatrix, ctx: OpSpaceContext) -> PolyMatrix:
    """ad gen (t) = sum of target(c1) t S(c2)|source over the coproduct."""
    return lincomb((1, ctx.target.of(a) @ t, antipode_matrix(b, ctx.source))
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


def _vec(t: PolyMatrix) -> PolyMatrix:
    """The row-major vec(t) as one column.  From graded t, read off its rows
    in the operator-space labels (a_i - b_k, sqfree(p_i q_k)) of t's labels
    (a_i, p_i) and (b_k, q_k), the basis of kron(target, source^T): entry
    v sqrt(p_i / q_k) = v gcd(p_i, q_k) (L / q_k) / L sqrt(sqfree(p_i q_k))
    for L the lcm of the q_k.  Else t's entries."""
    g = t._g
    if g is None:
        return PolyMatrix([[p] for row in t.entries for p in row])
    cl, big = g.cb.labels, lcm(*(q for _, q in g.cb.labels))
    rows, labels = [], []
    for (a, p), row in zip(g.rb.labels, g.rows):
        for k, (b, q) in enumerate(cl):
            f = gcd(p, q)
            labels.append((a - b, (p // f) * (q // f)))
            rows.append({0: row[k] * f * (big // q)} if k in row else {})
    return PolyMatrix._labelled(g.den * big, rows, labels, ((0, 1),), g.shift, g.rad)


def verify_adjoint_is_representation(ctx: OpSpaceContext, samples,
                                     label: str = "") -> Report:
    """The defining relations hold for the adjoint action on operators.

    [ad X, ad Y] = ad H; [ad H, ad X] = 2 ad sinh(hX)/h; and
    [ad H, ad Y] = -(ad Y ad cosh(hX) + ad cosh(hX) ad Y), checked on the
    given sample operators: each relation residual of the adjoint module,
    applied to vec(t) and, when it is not zero, read back in the shape of t.
    """
    report = Report(f"adjoint action is a representation {label}".rstrip())
    residuals = relation_residuals(_adjoint_module(ctx))
    rw, cw = ctx.target.x.row_weights, ctx.source.x.col_weights
    for idx, t in enumerate(samples):
        vec = _vec(t)
        for name, (_, residual) in zip(_ADJOINT_RELATIONS, residuals):
            r = residual @ vec
            if not r.is_zero:
                r = PolyMatrix([[r.entry(i * t.cols + k, 0) for k in range(t.cols)]
                                for i in range(t.rows)], rw, cw)
            report.add(zero_check(f"{name} on sample {idx}", r))
    return report


def verify_tensor_operator(fam: TensorOpFamily, label: str = "") -> Report:
    """ad c(t_m) = sum_k D(c)[k, m] t_k with D the spin-`rank` matrices."""
    rep, ctx = irrep(fam.rank), fam.ctx
    dmats = {Generator.X: rep.x, Generator.Y: rep.y, Generator.H: rep.hm}
    report = Report(f"tensor operator check {label}".rstrip())
    for gen, dmat in dmats.items():
        d = (-dmat).entries  # the residual subtracts sum_k D[k, m] t_k
        for col, (m, t) in enumerate(zip(fam.weights, fam.components)):
            terms = [(1, ctx.target.of(a) @ t, antipode_matrix(b, ctx.source))
                     for a, b in coproduct_terms(gen)]
            terms += [(d[k][col], u) for k, u in enumerate(fam.components) if d[k][col]
                      ] or [(0, t._relabeled(None, None))]  # as lhs - 0: no weights
            report.add(zero_check(f"ad {gen.value} on component m={m}", lincomb(terms)))
    return report


# -- fermionic realization ---------------------------------------------------

class FockBlock(Frozen, Record):
    """A finite Fock module with its generator matrices and irrep sectors."""

    def __init__(self, kind: str, labels: tuple[str, ...], gens: GenMatrices,
                 sectors: Mapping[str, tuple[int, ...]]):
        vars(self).update(kind=kind, labels=labels, gens=gens, sectors=sectors)


# The labels (h-offset, radical) of the Fock basis: the quasi-spin doublet
# |0>, c1 c2|0> has the offsets 0, 1 of its ladder basis, and the modes keep
# every generator and component in this one basis.
_FOCK = ((0, 1), (0, 1), (1, 1), (1, 1))


def fermion_modes() -> dict[str, PolyMatrix]:
    """Two fermionic modes on the basis |0>, c1|0>, c2|0>, c1 c2|0>
    (creation operators applied left to right).  The matrices are memoized
    and immutable; each call returns a fresh dict of them."""
    return dict(_fermion_modes())


@spin_memo
def _fermion_modes() -> dict[str, PolyMatrix]:
    # c1+ takes |0>, c2|0> to c1|0>, c1 c2|0>; c2+ takes |0>, c1|0> to
    # c2|0>, -c1 c2|0>; c1, c2 are their transposes.  Every entry is h^0,
    # so the constant shift of c2+ is -1 and that of c2 is 1.
    return {
        "c1+": PolyMatrix._labelled(1, [{}, {0: 1}, {}, {2: 1}], _FOCK, _FOCK),
        "c2+": PolyMatrix._labelled(1, [{}, {}, {0: 1}, {1: -1}], _FOCK, _FOCK, -1),
        "c1": PolyMatrix._labelled(1, [{1: 1}, {}, {3: 1}, {}], _FOCK, _FOCK),
        "c2": PolyMatrix._labelled(1, [{2: 1}, {3: -1}, {}, {}], _FOCK, _FOCK, 1),
    }


@spin_memo
def fermion_realization() -> tuple[FockBlock, TensorOpFamily, TensorOpFamily]:
    """The four-dimensional fermionic module and its two spin-1/2 families.

    The quasi-spin generators pair the modes: the vacuum and the doubly
    occupied state span a spin-1/2 sector, the two singly occupied states
    span two singlet sectors.  Family A is built on the first mode, family
    B on the second; each swaps the spin-1/2 sector with one singlet.
    Memoized; the block and families are immutable.
    """
    modes = _fermion_modes()
    n1 = modes["c1+"] @ modes["c1"]
    n2 = modes["c2+"] @ modes["c2"]
    jp = modes["c1+"] @ modes["c2+"]  # quasi-spin raising: pairs the two modes
    ident = PolyMatrix._labelled(1, [{i: 1} for i in range(4)], _FOCK, _FOCK)
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
        sectors=MappingProxyType(
            {"doublet": (3, 0), "singlet1": (1,), "singlet2": (2,)}),
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
    (j+1/2, m-1/2) with sqrt(j-m+1); b1, b2 lower correspondingly.  In
    position c = j - m and the ladder gauges these are c -> c with 1,
    c -> c+1 with 1, c -> c with 2j - c and c -> c-1 with c.
    """
    j, n = as_half(j), dim_of(j)
    up = [{c: 1} for c in range(n)] + [{}]
    out = {"b1+": _ladder_map(1, up, n + 1, n),
           "b2+": _ladder_map(1, [{}] + up[:-1], n + 1, n, 1)}
    if n > 1:
        out["b1"] = _ladder_map(1, [{c: n - 1 - c} for c in range(n - 1)], n - 1, n)
        out["b2"] = _ladder_map(1, [{c + 1: c + 1} for c in range(n - 1)], n - 1, n, -1)
    return {name: m._relabeled(weight_range(HalfInt.from_twice(m.rows - 1)),
                               weight_range(j)) for name, m in out.items()}


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


@spin_memo
def boson_raising_family(j) -> TensorOpFamily:
    """The spin-1/2 family mapping spin j to spin j+1/2:
    t[+1/2] = (1 - (h/2) Zp)^{-1} b1+ and
    t[-1/2] = (1 - (h/2) Zp) b2+ + (h/2)(t[+1/2] - b1+ H).
    Memoized per spin; the family is immutable."""
    b = boson_transfer_matrices(j)
    return _boson_family(j, j + half(1, 2), b["b1+"], b["b2+"])


@spin_memo
def boson_lowering_family(j) -> TensorOpFamily:
    """The spin-1/2 family mapping spin j to spin j-1/2 (j >= 1/2):
    t[+1/2] = -(1 - (h/2) Zp)^{-1} b2 and
    t[-1/2] = (1 - (h/2) Zp) b1 + (h/2)(t[+1/2] + b2 H).
    Memoized per spin; the family is immutable."""
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


def _closed_forms(j: HalfInt, raising: bool) -> tuple[PolyMatrix, PolyMatrix]:
    """The closed-form actions of the raising or lowering family, column m
    holding t[+1/2]|j m> = sum_n ups[n] (h/2)^n |jt m+1/2+n> and t[-1/2]|j m>
    = lead |jt m-1/2> + mid h |jt m+1/2> + (h/2) (its n >= 1 terms).  In
    position c = j - m and the ladder gauges, with f(c, k) = c! / (c-k)!:
    raising, ups[n] = f(c, n), lead 1, mid -(2j-c)/2; lowering, ups[n] =
    -f(c, n+1), lead 2j-c, mid -c(c+1)/2; zero coefficients are dropped."""
    n = dim_of(j)
    nt, off = (n + 1, 0) if raising else (n - 1, 1)  # ups[k] sits at c-off-k
    ups, dns = [{} for _ in range(nt)], [{} for _ in range(nt)]
    for c in range(n):
        for k in range(c + 1 - off):
            f = perm(c, k + off) if raising else -perm(c, k + off)
            ups[c - off - k][c] = f << (n - k)
            if k:
                dns[c - off - k][c] = f << (n - k - 1)
        lead, mid = (1, n - 1 - c) if raising else (n - 1 - c, c * (c + 1))
        if lead:
            dns[c + 1 - off][c] = lead << n
        if mid:
            dns[c - off][c] = -mid << (n - 1)
    return (_ladder_map(1 << n, ups, nt, n, -off),
            _ladder_map(1 << n, dns, nt, n, 1 - off))


def boson_raising_action(j, m) -> tuple[PolyMatrix, PolyMatrix]:
    """Closed-form action of the raising family on |j m>, as target columns
    (t[+1/2]|j m>, t[-1/2]|j m>)."""
    return tuple(t.column(weight_index(as_half(j), as_half(m)))
                 for t in _closed_forms(as_half(j), True))


def boson_lowering_action(j, m) -> tuple[PolyMatrix, PolyMatrix]:
    """Closed-form action of the lowering family on |j m>, as target columns.

    These coefficients are derived from the operator definition itself (see
    verify_boson_action, which cross-checks them against the matrices): the
    m-1/2 term carries sqrt(j+m), the single h-linear term carries
    -(h/2) sqrt(j-m) (j-m+1), and the tail repeats the t[+1/2] pattern.
    """
    return tuple(t.column(weight_index(as_half(j), as_half(m)))
                 for t in _closed_forms(as_half(j), False))


def verify_boson_action(j) -> Report:
    """Columns of the boson families match the closed-form actions.

    For the lowering family the first two coefficient patterns of the
    commonly quoted closed form differ from what the operator definition
    produces; the report notes the discrepancy (with the derived values)
    and asserts the derived form.
    """
    j = as_half(j)
    report = Report(f"boson action formulas at spin {j}")
    families = [("raising", boson_raising_family, True, "")]
    if j.twice >= 1:
        families.append(("lowering", boson_lowering_family, False,
                         " (derived form)"))
    cells = [(m,) for m in weight_range(j)]
    for name, family, raising, form in families:
        sides = [(lincomb(((1, t), (-1, want))), PolyMatrix.column) for t, want
                 in zip(family(j).components, _closed_forms(j, raising))]
        report.extend(residual_checks(
            sides, (f"{name} t[+1/2] on |{j} {{0}}>",
                    f"{name} t[-1/2] on |{j} {{0}}>{form}"), cells))
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


@spin_memo
def identity_family(j) -> TensorOpFamily:
    """The rank-0 family whose single component is the identity operator.
    Memoized per spin; the family is immutable."""
    g = irrep(j).gens()
    return TensorOpFamily(
        rank=half(0),
        components=(PolyMatrix.identity(g.dim, g.weights),),
        ctx=OpSpaceContext(source=g, target=g))


# -- rank-1 family in the algebra generators ---------------------------------

@spin_memo
def rank1_generators(j) -> TensorOpFamily:
    """The rank-1 family on one module, written in the generators:
    t[1] = -e^{hX} sinh(hX)/h, t[0] = e^{hX} H / sqrt(2),
    t[-1] = e^{-hX/2} Y e^{-hX/2} + (h/2) e^{hX/2} H e^{hX/2} - (h/2) H^2.
    Memoized per spin; the family is immutable."""
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
    comps = tuple(
        lincomb((c, fam_a.component(k1), fam_b.component(k2))
                for (k1, k2), (c,) in zip(product_labels(ja, jb),
                                          coupled_ket(ja, jb, j, m).entries)
                if c)
        for m in weight_range(j))
    return TensorOpFamily(rank=j, components=comps,
                          ctx=OpSpaceContext(source=fam_b.ctx.source,
                                             target=fam_a.ctx.target))
