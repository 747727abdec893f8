"""Coupling machinery for tensor products of U_h(sl(2)) modules.

The tensor product of two spin modules decomposes exactly as in the
classical case, but the natural product vectors |j1 k1> (x) |j2 k2| are not
weight vectors of the coupled ladder operators.  The bridge is a family of
h-monomial coefficients alpha[k; m] = R[a, c] g(c) / g(a), in integer
positions a = j - k and c = j - m per slot, where

    g(c)^2 = c1! c2! / ((2j1-c1)! (2j2-c2)!),
    R[a, c] = (-1)^d2 (h/2)^(d1+d2) (b(s, d) - b(s-1, d-1)),
    b(s, d) = F(s1, d2) F(s2, d1),

with d = c - a, s = 2j - a - c and F the extended binomial coefficient
falling_binomial; R is zero unless d1, d2 >= 0.  So the table is
K = G^-1 R G with R rational and the radicals in the diagonal gauge
G = diag(g).  The "intermediate" vectors they define transform under the
coupled ladder operators exactly like classical product vectors, so
classical Clebsch-Gordan coefficients finish the job.

Three matrices hold it all, each built once per pair (alpha_table), with
weight pairs in product order (product_labels) and coupled vectors in
coupled_labels order.  K has alpha[k; m] at (k, m): its columns are the
intermediate kets.  B = P K^T P, with P reversing the weight order, has
alpha[-k; -m] at (m, k): its rows are the intermediate bras.  C has
<j1 n1; j2 n2 | j m> at (n, (j, m)).  Coupled kets are the columns of K C,
coupled bras the rows of C^T B.  The verifiers slice residuals of B K = 1
(alpha orthogonality, intermediate orthonormality), of Delta(Z) K = K S and
B Delta(Z) = S B for Z = H, Zp, Zm with S = Z (x) 1 + 1 (x) Z classical
(intermediate action), and of Casimir (K C) = (K C) diag(j(j+1)) (decompose).

The coupled ladder comes from module data.  X is primitive, so tanh
addition gives Delta(Zp) = S (1 + (h^2/4) Zp (x) Zp)^-1, S the slot sum of
Zp, and Delta(Zm) = ch Delta(Y) ch with ch = cosh(h Delta(X)/2)
= (E1 (x) E2 + E1^-1 (x) E2^-1)/2, E = e^{hX/2} of each module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .halfint import (HalfInt, as_half, casimir_eigenvalue, dim_of,
                      weight_index, weight_range)
from .hpoly import HPoly
from .irreps import (Generator, casimir_from_gens, coproduct_gens,
                     coproduct_matrix, irrep)
from .polymatrix import PolyMatrix, kron, unipotent_inverse
from .radical import RadScalar, falling_binomial, sqrt_factorial_ratio
from .report import Report, scalar_check, zero_check


class SelectionRuleError(ValueError):
    """The requested spins admit no coupling channel."""


_ZERO = HPoly.zero()


def product_weight_index(j1, j2, k1, k2) -> int:
    """Index of |j1 k1>(x)|j2 k2> in the product basis (first factor major)."""
    j2 = as_half(j2)
    return (weight_index(as_half(j1), as_half(k1)) * dim_of(j2)
            + weight_index(j2, as_half(k2)))


def product_labels(j1, j2) -> tuple[tuple[HalfInt, HalfInt], ...]:
    """The weight pairs (k1, k2) in product-basis order."""
    return tuple((k1, k2) for k1 in weight_range(as_half(j1))
                 for k2 in weight_range(as_half(j2)))


@dataclass(frozen=True)
class AlphaTable:
    """The coupling matrices of a (j1, j2) pair: the alpha table K, its
    reindexed inverse B = P K^T P and the classical CGC matrix C."""

    j1: HalfInt
    j2: HalfInt
    ket: PolyMatrix
    bra: PolyMatrix
    cgc: PolyMatrix

    def value(self, k1, k2, m1, m2) -> HPoly:
        """alpha[k1 k2; m1 m2]; ValueError for a weight off its ladder."""
        return self.ket.entry(product_weight_index(self.j1, self.j2, k1, k2),
                              product_weight_index(self.j1, self.j2, m1, m2))


def alpha_table(j1, j2) -> AlphaTable:
    return _alpha_table_cached(as_half(j1), as_half(j2))


@lru_cache(maxsize=None)
def _alpha_table_cached(j1: HalfInt, j2: HalfInt) -> AlphaTable:
    n1, n2 = dim_of(j1) - 1, dim_of(j2) - 1
    pos = [(c1, c2) for c1 in range(n1 + 1) for c2 in range(n2 + 1)]
    g = [sqrt_factorial_ratio(fact_num=c, fact_den=(n1 - c[0], n2 - c[1]))
         for c in pos]
    r = PolyMatrix([[_gauge_free_alpha(n1, n2, a, c) for c in pos]
                    for a in pos])
    ket = (PolyMatrix.diagonal([x.inverse() for x in g]) @ r
           @ PolyMatrix.diagonal(g))
    rev = range(ket.rows - 1, -1, -1)  # P, the reversed weight order
    cgc = PolyMatrix([[_cgc_entry(j1, j2, j, m, k1, k2)
                       for j, m in coupled_labels(j1, j2)]
                      for k1, k2 in product_labels(j1, j2)])
    return AlphaTable(j1, j2, ket, ket.transpose().submatrix(rev, rev), cgc)


def _gauge_free_alpha(n1, n2, a, c) -> HPoly:
    """R[a, c] at positions a = j - k, c = j - m, with n = 2j per slot."""
    d1, d2 = c[0] - a[0], c[1] - a[1]
    if d1 < 0 or d2 < 0:
        return _ZERO
    s1, s2 = n1 - a[0] - c[0], n2 - a[1] - c[1]
    f = falling_binomial
    bb = f(s1, d2) * f(s2, d1) - f(s1 - 1, d2 - 1) * f(s2 - 1, d1 - 1)
    return HPoly.h(d1 + d2, bb * (-1) ** d2 / 2 ** (d1 + d2)) if bb else _ZERO


def alpha_coeff(j1, j2, k1, k2, m1, m2) -> HPoly:
    """The coefficient of |j1 k1>(x)|j2 k2> in the intermediate (m1, m2) ket."""
    return alpha_table(j1, j2).value(k1, k2, m1, m2)


def intermediate_ket(j1, j2, m1, m2) -> PolyMatrix:
    """The intermediate ket as a column over the product basis (of K)."""
    return alpha_table(j1, j2).ket.column(product_weight_index(j1, j2, m1, m2))


def intermediate_bra(j1, j2, m1, m2) -> PolyMatrix:
    """The intermediate bra as a row over the product basis (of B): the
    alpha values with every index negated."""
    return alpha_table(j1, j2).bra.row(product_weight_index(j1, j2, m1, m2))


def coupled_ladder(j1, j2) -> tuple[PolyMatrix, PolyMatrix, PolyMatrix]:
    """(Zp, Zm, H) of the coupled module, by the closed forms above."""
    r1, r2 = irrep(j1), irrep(j2)
    zp = _slot_sum(r1.zp, r2.zp) @ unipotent_inverse(
        PolyMatrix.identity(r1.dim * r2.dim)
        + kron(r1.zp, r2.zp) * HPoly.h(2, Fraction(1, 4)))
    ch = (kron(r1.exp_half_hx, r2.exp_half_hx)
          + kron(r1.exp_mhalf_hx, r2.exp_mhalf_hx)) * Fraction(1, 2)
    g1, g2 = r1.gens(), r2.gens()
    return (zp, ch @ coproduct_matrix(Generator.Y, g1, g2) @ ch,
            coproduct_matrix(Generator.H, g1, g2))


def _slot_sum(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    return (kron(a, PolyMatrix.identity(b.rows))
            + kron(PolyMatrix.identity(a.rows), b))


def slot_sums(j1, j2) -> tuple[PolyMatrix, PolyMatrix, PolyMatrix]:
    """S = Z (x) 1 + 1 (x) Z for the classical (Zp, Zm, H) of spins j1, j2:
    the action that intermediate vectors carry."""
    r1, r2 = irrep(j1), irrep(j2)
    return tuple(map(_slot_sum, (r1.zp, r1.zm, r1.hm), (r2.zp, r2.zm, r2.hm)))


def _unit_checks(report: Report, j1, j2, name, by_bra: bool) -> Report:
    """Slice B K = 1 into one scalar check per entry (n, m), named
    name(m, n); the outer loop runs over the bras n if by_bra, else over
    the kets m."""
    table = alpha_table(j1, j2)
    bk = table.bra @ table.ket
    labels = list(enumerate(product_labels(j1, j2)))
    for (r, n), (c, m) in ((o, i) if by_bra else (i, o)
                           for o in labels for i in labels):
        want = HPoly.one() if r == c else HPoly.zero()
        report.add(scalar_check(name(m, n), bk.entry(r, c), want))
    return report


def verify_alpha_orthogonality(j1, j2) -> Report:
    """sum_k alpha[k; m] alpha[-k; -n] = delta(m, n), over all m, n pairs."""
    j1, j2 = as_half(j1), as_half(j2)
    return _unit_checks(
        Report(f"alpha orthogonality for spins ({j1}, {j2})"), j1, j2,
        lambda m, n: f"sum_k alpha[k;({m[0]},{m[1]})] alpha[-k;({-n[0]},{-n[1]})]",
        by_bra=False)


def verify_intermediate_orthonormality(j1, j2) -> Report:
    """<(n1 n2)|(m1 m2)> = delta(m, n) for the intermediate bra/ket pairs."""
    j1, j2 = as_half(j1), as_half(j2)
    return _unit_checks(
        Report(f"intermediate orthonormality for spins ({j1}, {j2})"), j1, j2,
        lambda m, n: f"<({n[0]},{n[1]})|({m[0]},{m[1]})>", by_bra=True)


def _second_slot_variant(j1: HalfInt, j2: HalfInt, sign: int):
    """Z (x) 1 + 1 (x) W, W with sqrt((j1 -+ m2)(j2 +- m2 + 1)) in place of
    the j2 ladder coefficient, and the (doubled) m2 where that is defined."""
    ws = weight_range(j2)
    w, defined = [[HPoly.zero()] * len(ws) for _ in ws], set()
    for col, m2 in enumerate(ws):
        a, b = (j1 - m2, j2 + m2 + 1) if sign > 0 else (j1 + m2, j2 - m2 + 1)
        if a.is_integer and a.twice >= 0 and 0 <= col - sign < len(ws):
            w[col - sign][col] = HPoly.constant(
                RadScalar.sqrt(a.as_int() * b.as_int()))
            defined.add(m2.twice)
    return _slot_sum(irrep(j1).zp if sign > 0 else irrep(j1).zm, PolyMatrix(w)), defined


def verify_intermediate_action(j1, j2) -> Report:
    """The coupled ladder operators act on intermediate kets and bras with
    the classical product-basis matrix elements: one check per column of
    Delta(Z) K - K S and per row of B Delta(Z) - S B.

    The second-slot ladder coefficient uses the second spin label (the j2
    form); the report records whether the variant with the first spin label
    in that slot also matches, to document which form actually holds.
    """
    j1, j2 = as_half(j1), as_half(j2)
    report = Report(f"intermediate-vector ladder action for spins ({j1}, {j2})")
    k, b = alpha_table(j1, j2).ket, alpha_table(j1, j2).bra
    zp, zm, dh = coupled_ladder(j1, j2)
    sp, sm, sh = slot_sums(j1, j2)
    labels = product_labels(j1, j2)
    residuals, variant_agrees, variant_applicable = [], True, False
    for tag, sign, z, s in (("H", 0, dh, sh), ("Zp", 1, zp, sp),
                            ("Zm", -1, zm, sm)):
        zk = z @ k
        residuals.append((tag, zk - k @ s, b @ z - s @ b))
        if sign and j1 != j2:  # tracked, not asserted
            v, defined = _second_slot_variant(j1, j2, sign)
            cols = [c for c, (_, m2) in enumerate(labels) if m2.twice in defined]
            variant_applicable = variant_applicable or bool(cols)
            variant = zk - k @ v
            variant_agrees &= not any(row[c] for row in variant.entries
                                      for c in cols)
    for c, (m1, m2) in enumerate(labels):
        for tag, kets, bras in residuals:
            report.add(zero_check(f"{tag} ket ({m1},{m2})", kets.column(c)))
            report.add(zero_check(f"{tag} bra ({m1},{m2})", bras.row(c)))
    if j1 == j2:
        report.note("second-slot coefficient: spin labels coincide, the j1/j2 "
                    "variants are identical")
    elif variant_applicable:
        report.note("second-slot coefficient: the j2 form holds exactly; the "
                    "variant using j1 in the second slot "
                    + ("also matched" if variant_agrees else "does NOT match"))
    return report


# -- classical Clebsch-Gordan coefficients -----------------------------------

def sl2_cgc(j1, j2, j, m1, m2) -> RadScalar:
    """Classical Clebsch-Gordan coefficient <j1 m1; j2 m2 | j, m1+m2> in the
    Condon-Shortley convention, via the single-sum closed form."""
    return _sl2_cgc_cached(as_half(j1), as_half(j2), as_half(j), as_half(m1),
                           as_half(m2))


def triangle_allowed(j1, j2, j) -> bool:
    """Whether spin j occurs in the coupling of spins j1 and j2; raises for
    a negative spin."""
    j1, j2, j = as_half(j1), as_half(j2), as_half(j)
    for spin in (j1, j2, j):
        dim_of(spin)
    return (((j1 + j2 - j).is_integer and (j1 + j2 - j).twice >= 0)
            and (j1 - j2 + j).twice >= 0 and (-j1 + j2 + j).twice >= 0)


@lru_cache(maxsize=None)
def _sl2_cgc_cached(j1, j2, j, m1, m2) -> RadScalar:
    if not triangle_allowed(j1, j2, j):
        return RadScalar.zero()
    m = m1 + m2
    for (jj, mm) in ((j1, m1), (j2, m2), (j, m)):
        if abs(mm.twice) > jj.twice or not (jj - mm).is_integer:
            return RadScalar.zero()
    pref = sqrt_factorial_ratio(
        fact_num=((j1 + j2 - j).as_int(), (j1 - j2 + j).as_int(),
                  (-j1 + j2 + j).as_int(), (j1 + m1).as_int(),
                  (j1 - m1).as_int(), (j2 + m2).as_int(), (j2 - m2).as_int(),
                  (j + m).as_int(), (j - m).as_int()),
        fact_den=((j1 + j2 + j + 1).as_int(),),
        int_num=(j.twice + 1,),
    )
    s = Fraction(0)
    z_lo = max(0, -(j - j2 + m1).as_int(), -(j - j1 - m2).as_int())
    z_hi = min((j1 + j2 - j).as_int(), (j1 - m1).as_int(), (j2 + m2).as_int())
    for z in range(z_lo, z_hi + 1):
        den = (factorial(z) * factorial((j1 + j2 - j).as_int() - z)
               * factorial((j1 - m1).as_int() - z)
               * factorial((j2 + m2).as_int() - z)
               * factorial((j - j2 + m1).as_int() + z)
               * factorial((j - j1 - m2).as_int() + z))
        s += Fraction((-1) ** z, den)
    return pref * s


def coupled_spins(j1: HalfInt, j2: HalfInt) -> tuple[HalfInt, ...]:
    """j1+j2, j1+j2-1, ..., |j1-j2|.

    >>> coupled_spins(as_half(1), as_half("1/2"))
    (HalfInt(3/2), HalfInt(1/2))
    """
    top, bottom = j1 + j2, abs(j1 - j2)
    return tuple(HalfInt.from_twice(t) for t in range(top.twice, bottom.twice - 2, -2))


def coupled_labels(j1, j2) -> tuple[tuple[HalfInt, HalfInt], ...]:
    """The coupled vectors (j, m), spins j1+j2 down to |j1-j2| and weights
    j..-j: the column order of C and K C."""
    return tuple((j, m) for j in coupled_spins(as_half(j1), as_half(j2))
                 for m in weight_range(j))


def coupled_index(j1, j2, j, m) -> int:
    """Position of |j m> in coupled_labels; SelectionRuleError when the
    product holds no such vector."""
    j1, j2, j, m = as_half(j1), as_half(j2), as_half(j), as_half(m)
    try:
        return coupled_labels(j1, j2).index((j, m))
    except ValueError:
        raise SelectionRuleError(
            f"no vector |{j} {m}> in {j1} (x) {j2}") from None


def _cgc_entry(j1, j2, j, m, n1, n2) -> HPoly:
    """C at (n, (j, m)), from the sl2_cgc memo."""
    if n1.twice + n2.twice != m.twice:
        return _ZERO
    return HPoly.constant(sl2_cgc(j1, j2, j, n1, n2))


def cgc_matrix(j1, j2) -> PolyMatrix:
    """C, rows in product order and columns in coupled_labels order."""
    return alpha_table(j1, j2).cgc


@dataclass(frozen=True)
class CoupledBasis:
    """Coupled weight vectors |j m> of a product module: the columns of K C."""

    j1: HalfInt
    j2: HalfInt
    matrix: PolyMatrix

    def ket(self, j, m) -> PolyMatrix:
        return self.matrix.column(coupled_index(self.j1, self.j2, j, m))


def coupled_basis(j1, j2) -> CoupledBasis:
    """Couple intermediate kets with classical CGCs: K C."""
    j1, j2 = as_half(j1), as_half(j2)
    return CoupledBasis(j1, j2, alpha_table(j1, j2).ket @ cgc_matrix(j1, j2))


def decompose(j1, j2) -> list[tuple[HalfInt, int]]:
    """Decomposition of spin-j1 (x) spin-j2, certified exactly.

    Every coupled ket is an eigenvector of the coupled Casimir with
    eigenvalue j(j+1); any mismatch raises.  Each spin occurs once.
    """
    j1, j2 = as_half(j1), as_half(j2)
    kc = coupled_basis(j1, j2).matrix
    cas = casimir_from_gens(coproduct_gens(irrep(j1).gens(), irrep(j2).gens()))
    labels = coupled_labels(j1, j2)
    eigen = PolyMatrix.diagonal([casimir_eigenvalue(j) for j, _ in labels])
    bad = (cas @ kc - kc @ eigen).transpose().first_nonzero()
    if bad:
        raise ArithmeticError("coupled Casimir eigenvalue mismatch at "
                              "j={}, m={}".format(*labels[bad[0]]))
    return [(j, 1) for j in coupled_spins(j1, j2)]


def coupled_ket(j1, j2, j, m) -> PolyMatrix:
    """The coupled ket |j m> as a column over the product basis (of K C)."""
    table = alpha_table(j1, j2)
    return table.ket @ table.cgc.column(coupled_index(j1, j2, j, m))


def coupled_bra(j1, j2, j, m) -> PolyMatrix:
    """The coupled bra <j m| as a row over the product basis (of C^T B)."""
    table = alpha_table(j1, j2)
    return (table.cgc.column(coupled_index(j1, j2, j, m)).transpose()
            @ table.bra)


def uh_cgc(j1, j2, j, k1, k2, m) -> HPoly:
    """Deformed Clebsch-Gordan coefficient: the coefficient of the product
    ket |j1 k1>(x)|j2 k2> in the coupled ket |j m>, as row k of K times
    column (j, m) of C."""
    table = alpha_table(j1, j2)
    row = table.ket.row(product_weight_index(j1, j2, k1, k2))
    return (row @ table.cgc.column(coupled_index(j1, j2, j, m))).scalar()


def uh_cgc_bra(j1, j2, j, k1, k2, m) -> HPoly:
    """Coefficient of <j1 k1|(x)<j2 k2| in the coupled bra <j m|."""
    return coupled_bra(j1, j2, j, m).entry(
        0, product_weight_index(j1, j2, k1, k2))
