"""Differential oracle for the coupling core: the defining index sums.

The library reads every coupling quantity off the matrices K (the alpha
table), B = P K^T P and C (the classical CGCs).  The functions here compute
the same quantities the long way, as the sums that define them, reading
only ``alpha_table(...).value`` and ``sl2_cgc``.  Tests compare the two.
"""

from jordanian.coupling import alpha_table, sl2_cgc
from jordanian.halfint import weight_range
from jordanian.hpoly import HPoly
from jordanian.polymatrix import PolyMatrix


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
            yield n1, n2, sl2_cgc(j1, j2, j, n1, n2)


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
