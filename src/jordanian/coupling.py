"""Coupling machinery for tensor products of U_h(sl(2)) modules.

The tensor product of two spin modules decomposes exactly as in the
classical case, but the natural product vectors |j1 k1> (x) |j2 k2| are not
weight vectors of the coupled ladder operators.  The bridge is a family of
h-monomial coefficients alpha[k; m] = R[a, c] g(c) / g(a), in integer
positions a = j - k and c = j - m per slot, where

    R[a, c] = (-1)^d2 (h/2)^(d1+d2) (b(s, d) - b(s-1, d-1)),
    b(s, d) = F(s1, d2) F(s2, d1),

with d = c - a, s = 2j - a - c and F the extended binomial coefficient
(falling_binomial, computed here in integers: C(n, m) for n >= 0,
(-1)^m C(m-n-1, m) for n < 0, zero for m < 0); R is zero unless
d1, d2 >= 0, and has power-of-two denominators.  So the table is
K = G^-1 R G with R rational and the radicals in the diagonal gauge
G = G1 (x) G2, G_i = diag(g_i) per spin with g_i(c)^2 = c!/(2j_i - c)!.
The "intermediate" vectors they define transform under the coupled ladder
operators exactly like classical product vectors, so classical
Clebsch-Gordan coefficients finish the job.  Their matrix has the same
shape: C = (D1 (x) D2) Q D_c, with Q the rational Racah single sum (nonzero
only where m1 + m2 = m) and the radicals in two diagonal gauges,
D_i = diag(d_i), d_i(m) = sqrt((j_i+m)! (j_i-m)!), per spin and
D_c = diag(sqrt((2j+1) Delta(j1 j2 j)) d_j(m)): one scale per coupled spin j
times the same per-spin gauge,
Delta(j1 j2 j) = (j1+j2-j)! (j1-j2+j)! (-j1+j2+j)! / (j1+j2+j+1)!.  sl2_cgc
gives one coefficient of C from the same closed form.

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
from functools import cached_property, lru_cache
from math import comb, factorial, lcm

from .halfint import (HalfInt, as_half, casimir_eigenvalue, dim_of,
                      weight_index, weight_range)
from .hpoly import HPoly
from .irreps import (Generator, casimir_from_gens, coproduct_gens,
                     coproduct_matrix, irrep)
from .polymatrix import PolyMatrix, kron, unipotent_inverse
from .radical import RadScalar, sqrt_factorial_ratio
from .report import Report, scalar_check, zero_check


class SelectionRuleError(ValueError):
    """The requested spins admit no coupling channel."""


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

    @cached_property
    def _bra_ket(self) -> PolyMatrix:
        """B K, formed on first use and kept: the identity when the tables
        are right, and read by both B K = 1 verifiers."""
        return self.bra @ self.ket

    def value(self, k1, k2, m1, m2) -> HPoly:
        """alpha[k1 k2; m1 m2]; ValueError for a weight off its ladder."""
        return self.ket.entry(product_weight_index(self.j1, self.j2, k1, k2),
                              product_weight_index(self.j1, self.j2, m1, m2))


def alpha_table(j1, j2) -> AlphaTable:
    return _alpha_table_cached(as_half(j1), as_half(j2))


@lru_cache(maxsize=None)
def _alpha_table_cached(j1: HalfInt, j2: HalfInt) -> AlphaTable:
    n1, n2 = dim_of(j1) - 1, dim_of(j2) - 1
    (g1, gi1, d1), (g2, gi2, d2) = _slot_gauges(n1), _slot_gauges(n2)
    ket = kron(gi1, gi2) @ _gauge_free_alpha(n1, n2) @ kron(g1, g2)
    rev = range(ket.rows - 1, -1, -1)  # P, the reversed weight order
    q, dc = _racah_core(n1, n2)
    cgc = kron(PolyMatrix.diagonal(d1), PolyMatrix.diagonal(d2)) @ q @ dc
    return AlphaTable(j1, j2, ket, ket.transpose().submatrix(rev, rev), cgc)


@lru_cache(maxsize=None)
def _slot_gauges(n: int) -> tuple[PolyMatrix, PolyMatrix, tuple[RadScalar, ...]]:
    """G, G^-1 and the diagonal d of D for one spin, n = 2j, at positions
    c = j - m: g(c)^2 = c!/(n-c)! and d(c)^2 = c! (n-c)! = (j+m)! (j-m)!."""
    g = [sqrt_factorial_ratio(fact_num=(c,), fact_den=(n - c,))
         for c in range(n + 1)]
    return (PolyMatrix.diagonal(g),
            PolyMatrix.diagonal([x.inverse() for x in g]),
            tuple(x * factorial(n - c) for c, x in enumerate(g)))


def _binomial(n: int, m: int) -> int:
    """falling_binomial(n, m) for int n, in integer arithmetic."""
    if m < 0:
        return 0
    if n >= 0:
        return comb(n, m)
    return -comb(m - n - 1, m) if m % 2 else comb(m - n - 1, m)


def _gauge_free_alpha(n1: int, n2: int) -> PolyMatrix:
    """R, rows a and columns c in product order (n = 2j per slot), over
    the denominator 2^(n1+n2)."""
    b, w, top = _binomial, n2 + 1, n1 + n2
    entries = {}
    for a1 in range(n1 + 1):
        for a2 in range(w):
            for c1 in range(a1, n1 + 1):
                d1, s1 = c1 - a1, n1 - a1 - c1
                for c2 in range(a2, w):
                    d2, s2 = c2 - a2, n2 - a2 - c2
                    bb = (b(s1, d2) * b(s2, d1)
                          - b(s1 - 1, d2 - 1) * b(s2 - 1, d1 - 1))
                    entries[a1 * w + a2, c1 * w + c2] = (
                        d1 + d2, (-bb if d2 % 2 else bb) << (top - d1 - d2))
    size = (n1 + 1) * w
    return PolyMatrix._monomials(size, size, 1 << top, entries)


def _racah_core(n1: int, n2: int) -> tuple[PolyMatrix, PolyMatrix]:
    """Q and D_c of a pair (n = 2j per slot).  Q at (n1 n2; j m)
    is, for m1 + m2 = m, the single sum over z of (-1)^z divided by
    z! (j1+j2-j-z)! (j1-m1-z)! (j2+m2-z)! (j-j2+m1+z)! (j-j1-m2+z)!;
    D_c(j, m) = sqrt((2j+1) Delta(j1 j2 j)) d_j(m), one scale per coupled
    spin times the spin-j gauge d_j of _slot_gauges."""
    f, w = factorial, n2 + 1
    sums, dc = {}, []
    for t in range(n1 + n2, abs(n1 - n2) - 1, -2):  # t = 2j
        # j1+j2-j, j1-j2+j, -j1+j2+j
        tri = ((n1 + n2 - t) // 2, (n1 - n2 + t) // 2, (n2 - n1 + t) // 2)
        scale = sqrt_factorial_ratio(fact_num=tri,
                                     fact_den=((n1 + n2 + t) // 2 + 1,),
                                     int_num=(t + 1,))
        for c, d in enumerate(_slot_gauges(t)[2]):  # c = j - m
            col = len(dc)
            dc.append(scale * d)
            for c1 in range(n1 + 1):
                c2 = c - c1 + tri[0]  # from m1 + m2 = m
                if not 0 <= c2 <= n2:
                    continue
                # j1-m1 = c1, j2+m2 = n2-c2, j-j2+m1 = e1, j-j1-m2 = e2
                e1, e2 = tri[1] - c1, c2 - tri[0]
                zs = range(max(0, -e1, -e2), min(tri[0], c1, n2 - c2) + 1)
                dens = [f(z) * f(tri[0] - z) * f(c1 - z) * f(n2 - c2 - z)
                        * f(e1 + z) * f(e2 + z) for z in zs]
                den = lcm(*dens)
                sums[c1 * w + c2, col] = den, sum(
                    -(den // d) if z % 2 else den // d
                    for z, d in zip(zs, dens))
    den = lcm(*(d for d, _ in sums.values()))
    q = PolyMatrix._monomials((n1 + 1) * w, len(dc), den, {
        key: (0, v * (den // d)) for key, (d, v) in sums.items()})
    return q, PolyMatrix.diagonal(dc)


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
    bk = alpha_table(j1, j2)._bra_ket
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
    eigenvalue j(j+1); any mismatch raises.  Each spin occurs once.  The
    certification runs once per pair; a failed one raises on every call.
    """
    return list(_certified_decomposition(as_half(j1), as_half(j2)))


@lru_cache(maxsize=None)
def _certified_decomposition(j1: HalfInt,
                             j2: HalfInt) -> tuple[tuple[HalfInt, int], ...]:
    kc = coupled_basis(j1, j2).matrix
    cas = casimir_from_gens(coproduct_gens(irrep(j1).gens(), irrep(j2).gens()))
    labels = coupled_labels(j1, j2)
    eigen = PolyMatrix.diagonal([casimir_eigenvalue(j) for j, _ in labels])
    bad = (cas @ kc - kc @ eigen).transpose().first_nonzero()
    if bad:
        raise ArithmeticError("coupled Casimir eigenvalue mismatch at "
                              "j={}, m={}".format(*labels[bad[0]]))
    return tuple((j, 1) for j in coupled_spins(j1, j2))


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
