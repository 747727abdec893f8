"""Differential oracle for the tensor-operator layer: the HPoly path.

The library builds the classical ladder (sl2_irrep), the boson transfer
matrices and the closed-form boson actions straight into graded storage,
as integer rows in the ladder gauges d(c) = sqrt(c! (2j-c)!)
(irreps._ladder_map), and a family's operator matrix T by putting the
components' graded rows side by side in K's row basis
(polymatrix._beside).  The functions here build the same matrices from
their defining formulas, with RadScalar and HPoly entries handed to the
public constructor, and put those entries into graded storage in the
ladder bases by the reference matrix_oracle.fit; ``family_columns``
concatenates the components' entries and fits them into K's row basis.
Tests compare the two field by field.
"""

from fractions import Fraction
from math import factorial

from jordanian.coupling import alpha_table
from jordanian.halfint import (HalfInt, as_half, dim_of, half, weight_index,
                               weight_range)
from jordanian.hpoly import HPoly
from jordanian.polymatrix import PolyMatrix, _bases, _basis
from jordanian.radical import RadScalar, sqrt_factorial_ratio, squarefree_decompose
from matrix_oracle import fit


def ladder_basis(n):
    """The basis of the ladder labels (-c, sqfree(c! (n-1-c)!)) of an
    n-dimensional module."""
    return _basis([(-c, squarefree_decompose(factorial(c) * factorial(n - 1 - c))[0])
                   for c in range(n)])


def _in_ladder_bases(m) -> PolyMatrix:
    """m's entries in graded storage in the ladder bases of its shape."""
    out = fit(m, ladder_basis(m.rows), ladder_basis(m.cols))
    assert out is not None
    return out


def sl2_ladder(j) -> tuple[PolyMatrix, PolyMatrix, PolyMatrix]:
    """(Zp, Zm, Hm) of spin j from their entries:
    Zp|j m> = sqrt((j-m)(j+m+1)) |j m+1>, Zm = Zp^T, Hm|j m> = 2m |j m>."""
    ws = weight_range(as_half(j))
    n = len(ws)
    # column c = j - m: sqrt((j-m)(j+m+1)) = sqrt(c (n - c)), n = 2j + 1
    zp = PolyMatrix([[RadScalar.sqrt(c * (n - c)) if c == r + 1 else 0
                      for c in range(n)] for r in range(n)], ws, ws)
    zm = PolyMatrix([[RadScalar.sqrt(r * (n - r)) if r == c + 1 else 0
                      for c in range(n)] for r in range(n)], ws, ws)
    hm = PolyMatrix.diagonal([Fraction(m.twice) for m in ws], ws)
    return tuple(map(_in_ladder_bases, (zp, zm, hm)))


def transfer_matrices(j) -> dict[str, PolyMatrix]:
    """b1+, b2+ (and b1, b2 for j >= 1/2) on the spin-j block, entry by
    entry: b1+ takes (j, m) to (j+1/2, m+1/2) with sqrt(j+m+1), b2+ to
    (j+1/2, m-1/2) with sqrt(j-m+1); b1, b2 lower correspondingly."""
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
        out[name] = _in_ladder_bases(PolyMatrix(rows, weight_range(jt), weight_range(j)))
    return out


def _factorial_ratio(j: HalfInt, m: HalfInt, n: int, k: int) -> RadScalar:
    """sqrt((j-m)! (j+m+n+k)! / ((j+m)! (j-m-n-1+k)!)); k = 1 for the
    raising family, k = 0 for the lowering family."""
    return sqrt_factorial_ratio(
        fact_num=((j - m).as_int(), (j + m).as_int() + n + k),
        fact_den=((j + m).as_int(), (j - m).as_int() - n - 1 + k))


def action_entries(j, m, raising: bool) -> tuple[list, list]:
    """The entries over the target spin jt of (t[+1/2]|j m>, t[-1/2]|j m>)
    of the raising or lowering family, where t[+1/2]|j m> =
    sum_n ups[n] (h/2)^n |jt m+1/2+n> and t[-1/2]|j m> = lead |jt m-1/2>
    + mid h |jt m+1/2> + (h/2) (the n >= 1 terms of t[+1/2]|j m>).  Zero
    coefficients are dropped, so they may sit off the ladder."""
    j, m = as_half(j), as_half(m)
    jm, jp = (j - m).as_int(), (j + m).as_int()
    if raising:
        jt, lead = j + half(1, 2), RadScalar.sqrt(jm + 1)
        ups = [_factorial_ratio(j, m, n, 1) for n in range(jm + 1)]
        mid = RadScalar.sqrt(jp + 1) * Fraction(-jp, 2)
    else:
        jt, lead = j - half(1, 2), RadScalar.sqrt(jp)
        ups = [-_factorial_ratio(j, m, n, 0) for n in range(jm)]
        mid = RadScalar.sqrt(jm) * Fraction(-(jm + 1), 2)
    up = [(m + half(1, 2) + n, HPoly.h(n, c * Fraction(1, 2**n)))
          for n, c in enumerate(ups)]
    dn = [(m - half(1, 2), HPoly.constant(lead)),
          (m + half(1, 2), HPoly.h(1, mid))]
    dn += [(mt, c * HPoly.h(1, Fraction(1, 2))) for mt, c in up[1:]]
    columns = ([HPoly.zero()] * dim_of(jt), [HPoly.zero()] * dim_of(jt))
    for column, terms in zip(columns, (up, dn)):
        for mt, coeff in terms:
            if coeff:
                column[weight_index(jt, mt)] += coeff
    return columns


def closed_forms(j, raising: bool) -> tuple[PolyMatrix, PolyMatrix]:
    """Each component's closed-form action on every |j m>, as one matrix
    with column m holding action_entries(j, m, raising)."""
    columns = [action_entries(j, m, raising) for m in weight_range(as_half(j))]
    return tuple(_in_ladder_bases(PolyMatrix(list(zip(*(c[s] for c in columns)))))
                 for s in (0, 1))


def family_columns(fam) -> PolyMatrix:
    """T of a family, t_{m1}|j2 m2> as column (m1, m2): the components'
    entries side by side, in graded storage in the target basis of the
    first component and the product basis of K when every component is
    graded and they fit there, else the entries alone."""
    ket = alpha_table(fam.rank, fam.ctx.source_j).ket
    t = PolyMatrix([[p for comp in fam.components for p in comp.entries[row]]
                    for row in range(fam.ctx.target.dim)])
    if any(comp._g is None for comp in fam.components):
        return t
    return fit(t, _bases(fam.components[0])[0], _bases(ket)[0]) or t
