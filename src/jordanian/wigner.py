"""Reduced matrix elements and the deformed Wigner-Eckart identity.

For a rank-j1 tensor operator family mapping the spin-j2 module into the
spin-j module, every matrix element factorizes as

    <j m| t_{j1 m1} |j2 m2> = I * sum_n alpha[(-m1,-m2); (-n1,-n2)] C(n1,n2,m)

with C the classical Clebsch-Gordan coefficients, alpha the
product-to-intermediate transition table of the (j1, j2) pair, and I a
reduced matrix element independent of m1, m2 and m.  The weight multiplying
I is exactly the coefficient of <j1 m1| (x) <j2 m2| in the coupled bra
<j m|, so the identity reads: matrix elements are reduced-element multiples
of the deformed bra Clebsch-Gordan coefficients.

The factorization is established the way it is proved, through the
alpha-combinations phi(n1,n2) of the operator columns.  With K,
B = P K^T P and C as in the coupling module, and T holding
t_{m1}|j2 m2> as column (m1, m2), they are the columns of Phi = T K.
verify_phi_recurrence slices Z Phi = Phi S (target H, Zp, Zm; classical
slot sums S) by columns, verify_overlap_recurrence by entries.
verify_wigner_eckart slices Phi = I C_j (C_j the spin-j rows of C^T),
T = Phi B, T = I W with W = C_j B, W (K C) = E_j (the spin-j rows of the
identity) and (C^T B)(K C) = 1.
"""

from __future__ import annotations

from .coupling import (SelectionRuleError, alpha_table, cgc_matrix,
                       coupled_index, product_label_texts, product_labels,
                       product_weight_index, triangle_allowed, uh_cgc_bra)
from .halfint import (HalfInt, as_half, dim_of, weight_index, weight_range,
                      weight_texts)
from .hpoly import HPoly
from .irreps import irrep
from .polymatrix import PolyMatrix, _unit_like, lincomb
from .record import Frozen, Record
from .report import (Check, Report, entry_checks, residual_checks,
                     scalar_check)
from .tensorops import TensorOpFamily


class ChannelMismatch(ArithmeticError):
    """Different channels disagree on the reduced matrix element."""


class ReducedMatrixElement(Frozen, Record):
    """The invariant factor of one family between two modules."""

    def __init__(self, rank: HalfInt, source_j: HalfInt, target_j: HalfInt,
                 value: HPoly):
        vars(self).update(rank=rank, source_j=source_j, target_j=target_j, value=value)

    def __str__(self) -> str:
        return (f"I({self.rank} {self.source_j} {self.target_j}) "
                f"= {self.value}")


def _require_ladder_basis(fam: TensorOpFamily) -> tuple[HalfInt, HalfInt]:
    """Both modules must be standard ladder-basis copies of their spins."""
    j2, j = fam.ctx.source_j, fam.ctx.target_j
    for label, gens, spin in (("source", fam.ctx.source, j2),
                              ("target", fam.ctx.target, j)):
        canon = irrep(spin).gens()
        for name in ("x", "y", "h", "ep", "em"):
            if getattr(gens, name) != getattr(canon, name):
                raise ValueError(
                    f"{label} module is not the standard spin-{spin} "
                    f"ladder basis (generator {name} differs)")
    return j2, j


def matrix_element(fam: TensorOpFamily, m, m1, m2) -> HPoly:
    """<j m| t_{rank m1} |j2 m2> as a polynomial in the deformation."""
    j2, j = fam.ctx.source_j, fam.ctx.target_j
    m, m1, m2 = as_half(m), as_half(m1), as_half(m2)
    return fam.component(m1).entry(weight_index(j, m), weight_index(j2, m2))


def wigner_eckart_weight(j1, j2, j, m1, m2, m) -> HPoly:
    """The coefficient multiplying the reduced matrix element, defined by
    sum_n alpha[(-m1,-m2); (-n1,-n2)] C(n1,n2,m): the coupled-bra
    coefficient uh_cgc_bra(j1, j2, j, m1, m2, m), an entry of C^T B."""
    return uh_cgc_bra(j1, j2, j, m1, m2, m)


def phi_vector(fam: TensorOpFamily, n1, n2) -> PolyMatrix:
    """The intermediate combination sum_k alpha[k; n] t_{k1} |j2 k2>."""
    return fam.phi.column(
        product_weight_index(fam.rank, fam.ctx.source_j, n1, n2))


def _ladder_sides(fam: TensorOpFamily):
    """(Z Phi, Phi S) for the target's Z = H, Zp, Zm and the slot sums S,
    kept on the family; the target must be the ladder basis."""
    _require_ladder_basis(fam)
    return fam.ladder_sides


# The checks of each phi(n1, n2), one per residual of _ladder_sides.
_PHI_NAMES = ("H phi({0},{1}) = 2({0}+{1}) phi",
              "Z+ phi({0},{1}) follows the two-slot ladder rule",
              "Z- phi({0},{1}) follows the two-slot ladder rule")


def verify_phi_recurrence(fam: TensorOpFamily, label: str = "") -> Report:
    """The phi vectors carry the classical intermediate-basis action.

    On the target module, H phi(n1,n2) = 2(n1+n2) phi(n1,n2) and
    Z+- phi(n1,n2) = sqrt((j1-+n1)(j1+-n1+1)) phi(n1+-1,n2)
                   + sqrt((j2-+n2)(j2+-n2+1)) phi(n1,n2+-1).
    """
    report = Report(f"intermediate action on operator combinations {label}".rstrip())
    report.extend(residual_checks(
        [(lincomb(((1, left), (-1, right))), PolyMatrix.column)
         for left, right in _ladder_sides(fam)],
        _PHI_NAMES, product_label_texts(fam.rank, fam.ctx.source_j)))
    return report


def verify_overlap_recurrence(fam: TensorOpFamily, label: str = "") -> Report:
    """The overlaps <j m|phi(n1,n2)> obey the classical CGC recurrences:
    sqrt((j-+m)(j+-m+1)) <jm|phi(n1,n2)>
      = sqrt((j1-+n1)(j1+-n1+1)) <j m+-1|phi(n1+-1,n2)>
      + sqrt((j2-+n2)(j2+-n2+1)) <j m+-1|phi(n1,n2+-1)>,
    which is entry (m+-1, n) of Z Phi = Phi S; both sides vanish when
    m+-1 leaves the ladder.
    """
    _, raising, lowering = _ladder_sides(fam)
    j = fam.ctx.target_j
    zero = HPoly.zero()
    report = Report(f"overlap recurrences {label}".rstrip())
    for col, (n1, n2) in enumerate(product_labels(fam.rank, fam.ctx.source_j)):
        for m in weight_range(j):
            for sym, sign, sides in (("raising", 1, raising),
                                     ("lowering", -1, lowering)):
                row = weight_index(j, m) - sign  # the weight m + sign
                lhs, rhs = (side.entries[row][col] if 0 <= row < dim_of(j)
                            else zero for side in sides)
                report.add(scalar_check(
                    f"{sym} recurrence at n=({n1},{n2}), m={m}", lhs, rhs))
    return report


def reduced_matrix_element(fam: TensorOpFamily) -> ReducedMatrixElement:
    """Extract the reduced matrix element, certifying channel agreement.

    Every overlap <j m|phi(n1,n2)> must equal I * C(n1,n2,m) for a single
    I; channels with nonvanishing classical coefficient each determine a
    candidate, and any disagreement raises ChannelMismatch.  Spins outside
    the coupling range raise SelectionRuleError.  The classical
    coefficients are read from the spin-j columns of the memoized C.
    """
    j2, j = _require_ladder_basis(fam)
    j1 = fam.rank
    if not triangle_allowed(j1, j2, j):
        raise SelectionRuleError(
            f"rank {j1} cannot connect spin {j2} to spin {j}")
    phi = fam.phi
    top = coupled_index(j1, j2, j, j)  # column of |j j> in C
    c = cgc_matrix(j1, j2)
    value = origin = None
    for col, (n1, n2) in enumerate(product_labels(j1, j2)):
        m = n1 + n2
        if abs(m.twice) > j.twice:
            continue
        row = weight_index(j, m)  # of <j m| in Phi
        cgc = c.entry(col, top + row)  # column top + row of C is |j m>
        if not cgc:
            continue
        candidate = phi.entry(row, col) / cgc.constant_value()
        channel = f"channel n=({n1},{n2}), m={m}"
        if value is None:
            value, origin = candidate, channel
        elif candidate != value:
            raise ChannelMismatch(f"{channel} gives {candidate}, but "
                                  f"{origin} gives {value}")
    if value is None:
        raise SelectionRuleError(
            f"no classical channel connects spin {j2} to spin {j} at rank {j1}")
    return ReducedMatrixElement(rank=j1, source_j=j2, target_j=j, value=value)


def verify_wigner_eckart(fam: TensorOpFamily, label: str = "") -> Report:
    """Full factorization check for one family: channel-consistent
    extraction of I, then Phi = I C_j, T = Phi B (the operator rebuilt
    through the inverse table), T = I W (matrix elements through the bra
    coefficients W = C_j B), W (K C) = E_j (W is the coupled bra) and
    (C^T B)(K C) = 1 (all coupled bras and kets are dual)."""
    report = Report(f"factorization of matrix elements {label}".rstrip())
    j2, j = _require_ladder_basis(fam)
    j1 = fam.rank
    try:
        rme = reduced_matrix_element(fam)
    except (SelectionRuleError, ChannelMismatch) as exc:
        report.add(Check("reduced matrix element extraction", "fail", str(exc)))
        return report
    ivalue = rme.value
    report.add(Check("reduced matrix element extraction", "pass",
                     f"I = {ivalue}"))

    texts = product_label_texts(j1, j2)
    table = alpha_table(j1, j2)
    t, phi = fam.columns, fam.phi
    top = coupled_index(j1, j2, j, j)  # row of <j j| in C^T
    spin_j, every = range(top, top + dim_of(j)), range(len(texts))
    c_j = table.cgc_transpose.submatrix(spin_j, every)
    report.extend(entry_checks(phi, c_j * ivalue, [
        f"<{j} {m}|phi({{0}},{{1}})> = I C at n=({{0}},{{1}}), m={m}"
        for m in weight_texts(j)], texts, by_row=False))

    report.extend(residual_checks(
        [(lincomb(((1, t), (-1, phi, table.bra))), PolyMatrix.column)],
        [f"t_({{0}})|{j2} {{1}}> rebuilt from phi via the inverse table"], texts))

    bras = table.coupled_bras  # the spin-j rows are the weights W
    report.extend(entry_checks(
        t, bras.submatrix(spin_j, every) * ivalue,
        [f"<{j} {{0}}|t_({m1})|{j2} {m2}> = I * bra coefficient"
         for m1, m2 in texts], [(m,) for m in weight_texts(j)], by_row=True))

    dual = table.dual
    one = _unit_like(dual)
    for name, ok in (
            ("the factorization weight is the coupled-bra coefficient",
             dual.submatrix(spin_j, every) == one.submatrix(spin_j, every)),
            ("bra and ket deformed coefficients are dual", dual == one)):
        report.add(Check(name, "pass" if ok else "fail", "exact" if ok else ""))
    return report
