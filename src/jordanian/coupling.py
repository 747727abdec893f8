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
G = G1 (x) G2, g_i(c)^2 = c!/(2j_i - c)! per spin.  The "intermediate"
vectors they define transform under the coupled ladder operators exactly
like classical product vectors, so classical Clebsch-Gordan coefficients
finish the job.  Their matrix has the same shape: C = (D1 (x) D2) Q D_c,
with Q the rational Racah single sum (nonzero only where m1 + m2 = m),
d_i(m) = sqrt((j_i+m)! (j_i-m)!) per spin, and
D_c(j, m) = sqrt((2j+1) Delta(j1 j2 j)) d_j(m): one scale per coupled spin
j times the same per-spin gauge, with
Delta(j1 j2 j) = (j1+j2-j)! (j1-j2+j)! (-j1+j2+j)! / (j1+j2+j+1)!.  No
gauge is built as a matrix: its squarefree radicals are folded into the
basis labels of graded storage and the rest into the integer numerators,
so K, B, C, C^T and diag(j(j+1)) are built straight into graded storage.

Three matrices hold it all, each built once per pair (alpha_table), with
weight pairs in product order (product_labels) and coupled vectors in
coupled_labels order.  K has alpha[k; m] at (k, m): its columns are the
intermediate kets.  B = P K^T P, with P reversing the weight order, has
alpha[-k; -m] at (m, k): its rows are the intermediate bras.  C has
<j1 n1; j2 n2 | j m> at (n, (j, m)), memoized apart from K for sl2_cgc.
Coupled kets are the columns of K C, coupled bras the rows of C^T B; a
coefficient is read as one entry of their storage (PolyMatrix.entry), never
through a slice or a whole table's HPoly view.  The verifiers slice
residuals of B K = 1 (alpha orthogonality, intermediate orthonormality), of
Delta(Z) K = K S and B Delta(Z) = S B for Z = H, Zp, Zm with
S = Z (x) 1 + 1 (x) Z classical (intermediate action), and of
Casimir (K C) = (K C) diag(j(j+1)) (decompose).

The coupled ladder comes from module data.  X is primitive, so tanh
addition gives Delta(Zp) = S (1 + (h^2/4) Zp (x) Zp)^-1, S the slot sum of
Zp, and Delta(Zm) = ch Delta(Y) ch with ch = cosh(h Delta(X)/2)
= (E1 (x) E2 + E1^-1 (x) E2^-1)/2, E = e^{hX/2} of each module.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, factorial, gcd, lcm

from .halfint import (HalfInt, as_half, casimir_eigenvalue, dim_of, spin_memo,
                      weight_index, weight_range, weight_texts)
from .hpoly import HPoly
from .irreps import (Generator, GenMatrices, _slot_gauges, casimir_from_gens,
                     coproduct_matrix, irrep)
from .polymatrix import (PolyMatrix, _bases, _dual, _unit_like, kron, lincomb,
                         unipotent_inverse)
from .radical import RadScalar, sqrt_factorial_ratio
from .record import Frozen, Record
from .report import Report, entry_checks, residual_checks


class SelectionRuleError(ValueError):
    """The requested spins admit no coupling channel."""


def product_weight_index(j1, j2, k1, k2) -> int:
    """Index of |j1 k1>(x)|j2 k2> in the product basis (first factor major)."""
    j2 = as_half(j2)
    return (weight_index(as_half(j1), as_half(k1)) * dim_of(j2)
            + weight_index(j2, as_half(k2)))


@spin_memo
def product_labels(j1, j2) -> tuple[tuple[HalfInt, HalfInt], ...]:
    """The weight pairs (k1, k2) in product-basis order; one tuple per
    pair, built on first request and then shared."""
    return tuple((k1, k2) for k1 in weight_range(j1) for k2 in weight_range(j2))


@spin_memo
def product_label_texts(j1, j2) -> tuple[tuple[str, str], ...]:
    """The texts of product_labels(j1, j2), kept beside them."""
    return tuple((k1, k2) for k1 in weight_texts(j1) for k2 in weight_texts(j2))


class AlphaTable(Frozen, Record):
    """The coupling matrices K, B = P K^T P and C of a (j1, j2) pair, and
    their products B K, K C, C^T B and (C^T B)(K C), each formed on first
    use and kept."""

    def __init__(self, j1: HalfInt, j2: HalfInt, ket: PolyMatrix,
                 bra: PolyMatrix, cgc: PolyMatrix):
        vars(self).update(j1=j1, j2=j2, ket=ket, bra=bra, cgc=cgc)

    @cached_property
    def _bra_ket(self) -> PolyMatrix:
        """B K, formed on first use and kept: the identity when the tables
        are right, and read by both B K = 1 verifiers."""
        return self.bra @ self.ket

    @cached_property
    def coupled(self) -> PolyMatrix:
        """K C: the coupled kets |j m> as columns (coupled_labels order)."""
        return self.ket @ self.cgc

    @property
    def cgc_transpose(self) -> PolyMatrix:
        """C^T in the bases of C, swapped: every entry of C is h^0, so the
        transpose's numerators hold there with the shift negated (a C that
        is not graded is transposed entrywise).  Formed on each read."""
        t = self.cgc.transpose()
        g = t._g
        return t if g is None else PolyMatrix._labelled(
            g.den, g.rows, _dual(g.rb).labels, _dual(g.cb).labels, -g.shift, g.rad)

    @cached_property
    def coupled_bras(self) -> PolyMatrix:
        """C^T B: the coupled bras <j m| as rows (coupled_labels order)."""
        return self.cgc_transpose @ self.bra

    @cached_property
    def dual(self) -> PolyMatrix:
        """(C^T B)(K C), formed on first use and kept: the identity when the
        coupled bras and kets are dual, read by every Wigner-Eckart check
        of a family of this pair."""
        return self.coupled_bras @ self.coupled

    def value(self, k1, k2, m1, m2) -> HPoly:
        """alpha[k1 k2; m1 m2], one entry of K read from its storage (no
        slice, and K's HPoly view is not built); ValueError for a weight
        off its ladder."""
        return self.ket.entry(product_weight_index(self.j1, self.j2, k1, k2),
                              product_weight_index(self.j1, self.j2, m1, m2))


@spin_memo
def alpha_table(j1, j2) -> AlphaTable:
    ket = _alpha_ket(dim_of(j1) - 1, dim_of(j2) - 1)  # raises for a negative spin
    return AlphaTable(j1, j2, ket, _alpha_bra(ket), cgc_matrix(j1, j2))


def _alpha_bra(ket: PolyMatrix) -> PolyMatrix:
    """B = P K^T P from the rows of graded K in one pass, P reversing the
    weight order: B[a, c] = K[n-1-c, n-1-a] in K's dual labels reversed,
    where V sqrt(p rad / q) = (V p / q) sqrt(q rad / p), as in a transpose.
    A K that keeps only its entries is transposed and reversed entrywise."""
    g, last = ket._g, ket.rows - 1
    if g is None:
        rev = range(last, -1, -1)
        return ket.transpose().submatrix(rev, rev)
    rl, cl = g.rb.labels, g.cb.labels
    big = lcm(*(q for _, q in cl))
    rows = [{} for _ in cl]
    for i, row in enumerate(g.rows):
        p = rl[i][1]
        for c, v in row.items():
            rows[last - c][last - i] = v * p * (big // cl[c][1])
    return PolyMatrix._labelled(g.den * big, rows, [(-b, q) for b, q in reversed(cl)],
                                [(-a, p) for a, p in reversed(rl)], g.shift, g.rad)


def _product_gauges(n1: int, n2: int) -> list[tuple[tuple[int, int], int]]:
    """(raw label (-(c1 + c2), P), u) per product index, P = sqfree(p1 p2)
    and d1(c1) d2(c2) = u sqrt(P): sqrt(p1 p2) = gcd(p1, p2) sqrt(P)."""
    out = []
    for c1, (p1, s1) in enumerate(_slot_gauges(n1)):
        for c2, (p2, s2) in enumerate(_slot_gauges(n2)):
            g = gcd(p1, p2)
            out.append(((-(c1 + c2), (p1 // g) * (p2 // g)), s1 * s2 * g))
    return out


def _binomial(n: int, m: int) -> int:
    """falling_binomial(n, m) for int n, in integer arithmetic."""
    if m < 0:
        return 0
    return comb(n, m) if n >= 0 else (-1) ** m * comb(m - n - 1, m)


def _alpha_ket(n1: int, n2: int) -> PolyMatrix:
    """K = G^-1 R G, R over 2^(n1+n2): per slot g(c) = d(c)/(n-c)! and
    1/g(a) = d(a)/a!, so K[a, c] = R[a, c] x(a) y(c) sqrt(P_a / P_c) in the
    product labels, x(a) = u(a)/(a1! a2!), y(c) = u(c) P_c/((n1-c1)! (n2-c2)!)."""
    b, w, top, f1, f2 = _binomial, n2 + 1, n1 + n2, factorial(n1), factorial(n2)
    labels, u = zip(*_product_gauges(n1, n2))
    ratio = [(f1 // factorial(c1)) * (f2 // factorial(c2))
             for c1 in range(n1 + 1) for c2 in range(w)]  # over n1! n2!
    x = [v * r for v, r in zip(u, ratio)]
    y = [v * p * r for v, (_, p), r in zip(u, labels, reversed(ratio))]
    rows = []
    for a1 in range(n1 + 1):
        for a2 in range(w):
            row, xa = {}, x[a1 * w + a2]
            for c1 in range(a1, n1 + 1):
                d1, s1 = c1 - a1, n1 - a1 - c1
                for c2 in range(a2, w):
                    d2, s2 = c2 - a2, n2 - a2 - c2
                    bb = (b(s1, d2) * b(s2, d1)
                          - b(s1 - 1, d2 - 1) * b(s2 - 1, d1 - 1))
                    if bb:
                        row[c1 * w + c2] = ((-bb if d2 % 2 else bb) << (
                            top - d1 - d2)) * xa * y[c1 * w + c2]
            rows.append(row)
    return PolyMatrix._labelled((f1 * f2) ** 2 << top, rows, labels, labels)


@spin_memo
def cgc_matrix(j1, j2) -> PolyMatrix:
    """C, rows in product order and columns in coupled_labels order:
    (D1 (x) D2) Q D_c of a pair, memoized apart from K.  Q is the sum over
    z of (-1)^z / (z! (j1+j2-j-z)! (j1-m1-z)! (j2+m2-z)! (j-j2+m1+z)!
    (j-j1-m2+z)!) where m1 + m2 = m.  For the scale r sqrt(sigma) of spin
    j, D_c(j, m) = e sqrt(q) with e rational and the column label
    q = sqfree(sigma p_j(m)): C = u(i) Q e q sqrt(P_i / q)."""
    n1, n2 = dim_of(j1) - 1, dim_of(j2) - 1
    f, w = factorial, n2 + 1
    labels, u = zip(*_product_gauges(n1, n2))
    sums, cols, scales = {}, [], []
    for t in range(n1 + n2, abs(n1 - n2) - 1, -2):  # t = 2j
        # j1+j2-j, j1-j2+j, -j1+j2+j
        tri = ((n1 + n2 - t) // 2, (n1 - n2 + t) // 2, (n2 - n1 + t) // 2)
        r, sigma = sqrt_factorial_ratio(fact_num=tri,
                                        fact_den=((n1 + n2 + t) // 2 + 1,),
                                        int_num=(t + 1,)).single_term()
        for c, (p, s) in enumerate(_slot_gauges(t)):  # c = j - m
            col, g = len(cols), gcd(sigma, p)
            cols.append((-(c + tri[0]), (sigma // g) * (p // g)))
            scales.append(r * (s * g * cols[-1][1]))
            for c1 in range(n1 + 1):
                c2 = c - c1 + tri[0]  # from m1 + m2 = m
                if not 0 <= c2 <= n2:
                    continue
                # j1-m1 = c1, j2+m2 = n2-c2, j-j2+m1 = e1, j-j1-m2 = e2
                e1, e2 = tri[1] - c1, c2 - tri[0]
                sums[c1 * w + c2, col] = [
                    (-1 if z % 2 else 1, f(z) * f(tri[0] - z) * f(c1 - z)
                     * f(n2 - c2 - z) * f(e1 + z) * f(e2 + z))
                    for z in range(max(0, -e1, -e2), min(tri[0], c1, n2 - c2) + 1)]
    den = lcm(*(d for terms in sums.values() for _, d in terms))
    big = lcm(*(x.denominator for x in scales))
    e = [x.numerator * (big // x.denominator) for x in scales]
    rows = [{} for _ in labels]
    for (i, col), terms in sums.items():
        if v := sum(s * (den // d) for s, d in terms):
            rows[i][col] = v * u[i] * e[col]
    return PolyMatrix._labelled(den * big, rows, labels, cols)


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
        kron(PolyMatrix.identity(r1.dim), PolyMatrix.identity(r2.dim))
        + kron(r1.zp, r2.zp) * HPoly.h(2, Fraction(1, 4)))
    ch = (kron(r1.exp_half_hx, r2.exp_half_hx)
          + kron(r1.exp_mhalf_hx, r2.exp_mhalf_hx)) * Fraction(1, 2)
    dy, dh, _, _ = _pair_coproducts(as_half(j1), as_half(j2))
    return zp, ch @ dy @ ch, dh


@lru_cache(maxsize=1)
def _pair_coproducts(j1: HalfInt, j2: HalfInt) -> tuple[PolyMatrix, ...]:
    """Delta(Y), Delta(H), Delta(e^{hX}) and Delta(e^{-hX}) of a pair: what
    coupled_ladder and the Casimir certificate read.  The coupling suite
    runs both on one pair before it moves on, so one pair is kept, and the
    certificate, which reads last, drops it."""
    g1, g2 = irrep(j1).gens(), irrep(j2).gens()
    return tuple(coproduct_matrix(gen, g1, g2) for gen in (
        Generator.Y, Generator.H, Generator.EXP_HX, Generator.EXP_MHX))


def _slot_sum(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    return (kron(a, PolyMatrix.identity(b.rows))
            + kron(PolyMatrix.identity(a.rows), b))


def slot_sums(j1, j2) -> tuple[PolyMatrix, PolyMatrix, PolyMatrix]:
    """S = Z (x) 1 + 1 (x) Z for the classical (Zp, Zm, H) of spins j1, j2:
    the action that intermediate vectors carry."""
    r1, r2 = irrep(j1), irrep(j2)
    return tuple(map(_slot_sum, (r1.zp, r1.zm, r1.hm), (r2.zp, r2.zm, r2.hm)))


def _unit_checks(report: Report, j1, j2, inner, by_bra: bool) -> Report:
    """Slice B K = 1 into one scalar check per entry.  The outer loop runs
    over the bras (rows) if by_bra, else over the kets (columns); the inner
    loop over the names inner(k1, k2) of the other side's labels, each a
    template of the outer label's texts.  The expected entries are those
    of one identity matrix."""
    bk = alpha_table(j1, j2)._bra_ket
    report.extend(entry_checks(
        bk, _unit_like(bk), [inner(k1, k2) for k1, k2 in product_labels(j1, j2)],
        product_label_texts(j1, j2), by_row=by_bra))
    return report


def verify_alpha_orthogonality(j1, j2) -> Report:
    """sum_k alpha[k; m] alpha[-k; -n] = delta(m, n), over all m, n pairs."""
    j1, j2 = as_half(j1), as_half(j2)
    return _unit_checks(
        Report(f"alpha orthogonality for spins ({j1}, {j2})"), j1, j2,
        lambda k1, k2: f"sum_k alpha[k;({{0}},{{1}})] alpha[-k;({-k1},{-k2})]",
        by_bra=False)


def verify_intermediate_orthonormality(j1, j2) -> Report:
    """<(n1 n2)|(m1 m2)> = delta(m, n) for the intermediate bra/ket pairs."""
    j1, j2 = as_half(j1), as_half(j2)
    return _unit_checks(
        Report(f"intermediate orthonormality for spins ({j1}, {j2})"), j1, j2,
        lambda k1, k2: f"<({{0}},{{1}})|({k1},{k2})>", by_bra=True)


def _second_slot_variant(j1: HalfInt, j2: HalfInt, sign: int) -> dict:
    """{col: w} where W is defined: W has w = sqrt((j1 -+ m2)(j2 +- m2 + 1)),
    m2 the weight of col, at (col - sign, col), where the j2 ladder matrix
    Z_j2 (sign 1 raises, -1 lowers) has its coefficient.  When the checks
    of Delta(Z) K = K S pass, and B K = 1 makes K invertible, then for the
    variant V = Z (x) 1 + 1 (x) W, Delta(Z) K - K V = K (1 (x) (Z_j2 - W))
    vanishes on the product columns of these m2 exactly when W equals Z_j2
    there."""
    ws = weight_range(j2)
    w = {}
    for col, m2 in enumerate(ws):
        a, b = (j1 - m2, j2 + m2 + 1) if sign > 0 else (j1 + m2, j2 - m2 + 1)
        if a.is_integer and a.twice >= 0 and 0 <= col - sign < len(ws):
            w[col] = RadScalar.sqrt(a.as_int() * b.as_int())
    return w


# The checks of each product label (m1, m2): a ket column and a bra row of
# the residuals of H, Zp and Zm, in this order.
_ACTION_NAMES = tuple(f"{tag} {side} ({{0}},{{1}})" for tag in ("H", "Zp", "Zm")
                      for side in ("ket", "bra"))


def verify_intermediate_action(j1, j2) -> Report:
    """The coupled ladder operators act on intermediate kets and bras with
    the classical product-basis matrix elements: one check per column of
    Delta(Z) K - K S and per row of B Delta(Z) - S B.

    The second-slot ladder coefficient uses the second spin label (the j2
    form); the report records whether the variant with the first spin label
    in that slot also matches, to document which form actually holds.  That
    is decided without a product with K: where the variant is defined and
    the residuals of this report vanish, it matches exactly when its
    second-slot matrix W equals the j2 ladder matrix (see
    _second_slot_variant), a d2 x d2 classical comparison.  When a residual
    fails, the note says the variant is not decided.
    """
    j1, j2 = as_half(j1), as_half(j2)
    report = Report(f"intermediate-vector ladder action for spins ({j1}, {j2})")
    k, b = alpha_table(j1, j2).ket, alpha_table(j1, j2).bra
    zp, zm, dh = coupled_ladder(j1, j2)
    sp, sm, sh = slot_sums(j1, j2)
    sides, variant_agrees, variant_applicable = [], True, False
    for sign, z, s in ((0, dh, sh), (1, zp, sp), (-1, zm, sm)):
        sides += [(lincomb(((1, z, k), (-1, k, s))), PolyMatrix.column),
                  (lincomb(((1, b, z), (-1, s, b))), PolyMatrix.row)]
        if sign and j1 != j2 and (w := _second_slot_variant(j1, j2, sign)):
            variant_applicable = True  # tracked, not asserted
            ladder = (irrep(j2).zp if sign > 0 else irrep(j2).zm).entries
            variant_agrees &= all(row[c] == (v if r == c - sign else 0)
                                  for c, v in w.items()
                                  for r, row in enumerate(ladder))
    report.extend(residual_checks(sides, _ACTION_NAMES,
                                  product_label_texts(j1, j2)))
    if j1 == j2:
        report.note("second-slot coefficient: spin labels coincide, the j1/j2 "
                    "variants are identical")
    elif variant_applicable and not report.ok:
        report.note("second-slot coefficient: the j2-form residuals fail, so "
                    "whether the variant using j1 in the second slot matches "
                    "is not decided")
    elif variant_applicable:
        report.note("second-slot coefficient: the j2 form holds exactly; the "
                    "variant using j1 in the second slot "
                    + ("also matched" if variant_agrees else "does NOT match"))
    return report


# -- classical Clebsch-Gordan coefficients -----------------------------------

def sl2_cgc(j1, j2, j, m1, m2) -> RadScalar:
    """Classical Clebsch-Gordan coefficient <j1 m1; j2 m2 | j, m1+m2> in the
    Condon-Shortley convention: an entry of C (read without building K),
    zero outside the triangle or for a weight off its ladder."""
    j1, j2, j, m1, m2 = map(as_half, (j1, j2, j, m1, m2))
    if not triangle_allowed(j1, j2, j):  # raises for a negative spin
        return RadScalar.zero()
    try:
        row = product_weight_index(j1, j2, m1, m2)
        col = coupled_index(j1, j2, j, m1 + m2)
    except ValueError:  # a weight off its ladder, or |m1 + m2| > j
        return RadScalar.zero()
    return cgc_matrix(j1, j2).entry(row, col).constant_value()


def triangle_allowed(j1, j2, j) -> bool:
    """Whether spin j occurs in the coupling of spins j1 and j2; raises for
    a negative spin."""
    j1, j2, j = as_half(j1), as_half(j2), as_half(j)
    for spin in (j1, j2, j):
        dim_of(spin)
    return (((j1 + j2 - j).is_integer and (j1 + j2 - j).twice >= 0)
            and (j1 - j2 + j).twice >= 0 and (-j1 + j2 + j).twice >= 0)


def coupled_spins(j1: HalfInt, j2: HalfInt) -> tuple[HalfInt, ...]:
    """j1+j2, j1+j2-1, ..., |j1-j2|.

    >>> coupled_spins(as_half(1), as_half("1/2"))
    (HalfInt(3/2), HalfInt(1/2))
    """
    top, bottom = j1 + j2, abs(j1 - j2)
    return tuple(HalfInt.from_twice(t) for t in range(top.twice, bottom.twice - 2, -2))


@spin_memo
def coupled_labels(j1, j2) -> tuple[tuple[HalfInt, HalfInt], ...]:
    """The coupled vectors (j, m), spins j1+j2 down to |j1-j2| and weights
    j..-j: the column order of C and K C.  One tuple per pair, built on
    first request and then shared."""
    return tuple((j, m) for j in coupled_spins(j1, j2) for m in weight_range(j))


@spin_memo
def _coupled_positions(j1, j2) -> dict[tuple[int, int], int]:
    """Position in coupled_labels of each (2j, 2m)."""
    return {(j.twice, m.twice): i
            for i, (j, m) in enumerate(coupled_labels(j1, j2))}


def coupled_index(j1, j2, j, m) -> int:
    """Position of |j m> in coupled_labels; SelectionRuleError when the
    product holds no such vector."""
    j1, j2, j, m = as_half(j1), as_half(j2), as_half(j), as_half(m)
    try:
        return _coupled_positions(j1, j2)[j.twice, m.twice]
    except KeyError:
        raise SelectionRuleError(
            f"no vector |{j} {m}> in {j1} (x) {j2}") from None


class CoupledBasis(Frozen, Record):
    """Coupled weight vectors |j m> of a product module: the columns of K C."""

    def __init__(self, j1: HalfInt, j2: HalfInt, matrix: PolyMatrix):
        vars(self).update(j1=j1, j2=j2, matrix=matrix)

    def ket(self, j, m) -> PolyMatrix:
        return self.matrix.column(coupled_index(self.j1, self.j2, j, m))


def coupled_basis(j1, j2) -> CoupledBasis:
    """Couple intermediate kets with classical CGCs: the memoized K C."""
    j1, j2 = as_half(j1), as_half(j2)
    return CoupledBasis(j1, j2, alpha_table(j1, j2).coupled)


def decompose(j1, j2) -> list[tuple[HalfInt, int]]:
    """Decomposition of spin-j1 (x) spin-j2, certified exactly.

    Every coupled ket is an eigenvector of the coupled Casimir with
    eigenvalue j(j+1); any mismatch raises.  Each spin occurs once.  The
    certification runs once per pair; a failed one raises on every call.
    """
    return list(_certified_decomposition(j1, j2))


@spin_memo
def _certified_decomposition(j1, j2) -> tuple[tuple[HalfInt, int], ...]:
    kc = coupled_basis(j1, j2).matrix
    # The Casimir never reads Delta(X), so it is not built.
    cas = casimir_from_gens(GenMatrices(None, *_pair_coproducts(j1, j2)))
    _pair_coproducts.cache_clear()
    labels = coupled_labels(j1, j2)
    diagonal = _casimir_diagonal(labels, _bases(kc)[1])
    residual = lincomb(((1, cas, kc), (-1, kc, diagonal)))
    if not residual.is_zero:
        bad = residual.transpose().first_nonzero()
        raise ArithmeticError("coupled Casimir eigenvalue mismatch at "
                              "j={}, m={}".format(*labels[bad[0]]))
    return tuple((j, 1) for j in coupled_spins(j1, j2))


def _casimir_diagonal(labels, basis) -> PolyMatrix:
    """diag(j(j+1)) over the coupled labels (j, m), built straight into
    graded storage in the coupled basis, every entry rational (h^0); by the
    public constructor when there is no basis (K C is not graded)."""
    values = [casimir_eigenvalue(j) for j, _ in labels]
    if basis is None:
        return PolyMatrix.diagonal(values)
    den = lcm(*(q.denominator for q in values))
    return PolyMatrix._labelled(den, [{i: q.numerator * (den // q.denominator)}
                                      if q else {} for i, q in enumerate(values)],
                                basis.labels, basis.labels)


def coupled_ket(j1, j2, j, m) -> PolyMatrix:
    """The coupled ket |j m> as a column over the product basis (of K C)."""
    return alpha_table(j1, j2).coupled.column(coupled_index(j1, j2, j, m))


def coupled_bra(j1, j2, j, m) -> PolyMatrix:
    """The coupled bra <j m| as a row over the product basis (of C^T B)."""
    return alpha_table(j1, j2).coupled_bras.row(coupled_index(j1, j2, j, m))


def uh_cgc(j1, j2, j, k1, k2, m) -> HPoly:
    """Deformed Clebsch-Gordan coefficient: the coefficient of the product
    ket |j1 k1>(x)|j2 k2> in the coupled ket |j m>: an entry of K C."""
    return alpha_table(j1, j2).coupled.entry(product_weight_index(
        j1, j2, k1, k2), coupled_index(j1, j2, j, m))


def uh_cgc_bra(j1, j2, j, k1, k2, m) -> HPoly:
    """Coefficient of <j1 k1|(x)<j2 k2| in the coupled bra <j m|: an entry
    of C^T B."""
    return alpha_table(j1, j2).coupled_bras.entry(coupled_index(
        j1, j2, j, m), product_weight_index(j1, j2, k1, k2))
