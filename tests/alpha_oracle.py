"""Differential oracle for the coupling core: the defining formulas.

The library builds the alpha table K = G^-1 R G and the classical CGCs
C = (D1 (x) D2) Q D_c straight into graded storage, in integer positions:
the gauges' squarefree radicals go into the basis labels and the rest into
integer numerators, with no gauge matrix and no product.  It reads every
coupling quantity off K, B = P K^T P and C.  ``alpha_entry`` computes one
alpha coefficient from its per-entry formula in half-integer labels and
``racah_cgc`` one classical CGC from the Racah single sum, each with its
radical from sqrt_factorial_ratio; the other functions compute the same
quantities the long way, as the sums that define them, reading only
``alpha_table(...).value`` and ``racah_cgc``.  Tests compare the two.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial

from jordanian.coupling import alpha_table, triangle_allowed
from jordanian.halfint import as_half, weight_range
from jordanian.hpoly import HPoly
from jordanian.polymatrix import PolyMatrix
from jordanian.radical import RadScalar, falling_binomial, sqrt_factorial_ratio


def _b(k1, k2, m1, m2) -> Fraction:
    """C(m1+k1, k2-m2) C(m2+k2, k1-m1), binomials extended to negative
    upper arguments and zero for a negative lower one."""
    return (falling_binomial((m1 + k1).as_int(), (k2 - m2).as_int())
            * falling_binomial((m2 + k2).as_int(), (k1 - m1).as_int()))


def alpha_entry(j1, j2, k1, k2, m1, m2) -> HPoly:
    """alpha[k1 k2; m1 m2] = (-1)^(k2-m2) (h/2)^e D (b - b'), with
    e = k1+k2-m1-m2, D the square root of
    (j1-m1)! (j1+k1)! (j2-m2)! (j2+k2)! / ((j1+m1)! (j1-k1)! (j2+m2)! (j2-k2)!)
    and b' the b of (k1-1, k2-1); zero unless k1 >= m1 and k2 >= m2."""
    j1, j2, k1, k2, m1, m2 = map(as_half, (j1, j2, k1, k2, m1, m2))
    if k1 < m1 or k2 < m2:
        return HPoly.zero()
    bb = _b(k1, k2, m1, m2) - _b(k1 - 1, k2 - 1, m1, m2)
    e = (k1 + k2 - m1 - m2).as_int()
    d = sqrt_factorial_ratio(
        fact_num=((j1 - m1).as_int(), (j1 + k1).as_int(),
                  (j2 - m2).as_int(), (j2 + k2).as_int()),
        fact_den=((j1 + m1).as_int(), (j1 - k1).as_int(),
                  (j2 + m2).as_int(), (j2 - k2).as_int()))
    sign = -1 if (k2 - m2).as_int() % 2 else 1
    return HPoly.h(e, d * (bb * sign * Fraction(1, 2**e)))


def racah_cgc(j1, j2, j, m1, m2) -> RadScalar:
    """<j1 m1; j2 m2 | j, m1+m2> (Condon-Shortley) from the Racah single
    sum, one coefficient at a time; zero outside the triangle or for a
    weight off its ladder."""
    return _racah_cgc(*map(as_half, (j1, j2, j, m1, m2)))


@lru_cache(maxsize=None)
def _racah_cgc(j1, j2, j, m1, m2) -> RadScalar:
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


def orthogonality_sum(j1, j2, m1, m2, n1, n2) -> HPoly:
    """sum_k alpha[k; m] alpha[-k; -n]."""
    value = alpha_table(j1, j2).value
    acc = HPoly.zero()
    for k1 in weight_range(j1):
        for k2 in weight_range(j2):
            acc = acc + value(k1, k2, m1, m2) * value(-k1, -k2, -n1, -n2)
    return acc


def _channels(j1, j2, j, m):
    """(n1, n2, C(n1, n2 | j m)) over the classical channels of |j m>."""
    for n1 in weight_range(j1):
        n2 = m - n1
        if abs(n2.twice) <= j2.twice:
            yield n1, n2, racah_cgc(j1, j2, j, n1, n2)


def uh_cgc_sum(j1, j2, j, k1, k2, m) -> HPoly:
    """sum_n alpha[k; n] C(n1, n2 | j m)."""
    value = alpha_table(j1, j2).value
    acc = HPoly.zero()
    for n1, n2, c in _channels(j1, j2, j, m):
        acc = acc + value(k1, k2, n1, n2) * c
    return acc


def uh_cgc_bra_sum(j1, j2, j, k1, k2, m) -> HPoly:
    """sum_n alpha[-k; -n] C(n1, n2 | j m)."""
    value = alpha_table(j1, j2).value
    acc = HPoly.zero()
    for n1, n2, c in _channels(j1, j2, j, m):
        acc = acc + value(-k1, -k2, -n1, -n2) * c
    return acc


def phi_sum(fam, n1, n2) -> PolyMatrix:
    """sum_k alpha[k; n] t_{k1} |j2 k2>."""
    j1, j2 = fam.rank, fam.ctx.source_j
    value = alpha_table(j1, j2).value
    acc = PolyMatrix.zeros(fam.ctx.target.dim, 1)
    for k1 in weight_range(j1):
        for col, k2 in enumerate(weight_range(j2)):
            acc = acc + fam.component(k1).column(col) * value(k1, k2, n1, n2)
    return acc
