"""JSON encodings for exact scalars and matrices.

A scalar is encoded as a list of term objects

    {"num": "...", "den": "...", "radicand": "...", "hpow": k}

with arbitrary-precision integers carried as strings, terms sorted by
(hpow, radicand).  A matrix is a row-major list of scalar encodings under a
shape header.  Round trips are bit exact.
"""

from __future__ import annotations

from fractions import Fraction

from .halfint import HalfInt
from .hpoly import HPoly, as_hpoly
from .polymatrix import PolyMatrix
from .radical import RadScalar


# The keys of a term object (cli._json_scalar writes them too).
NUM, DEN, RADICAND, HPOW = "num", "den", "radicand", "hpow"


def scalar_to_json(p) -> list[dict]:
    p = as_hpoly(p)
    return [
        {NUM: str(q.numerator), DEN: str(q.denominator), RADICAND: str(n), HPOW: k}
        for q, n, k in p.sorted_terms()
    ]


def scalar_from_json(obj) -> HPoly:
    acc = HPoly.zero()
    for term in obj:
        q = Fraction(int(term[NUM]), int(term[DEN]))
        coeff = RadScalar._make({int(term[RADICAND]): q})
        acc = acc + HPoly.h(int(term[HPOW]), coeff)
    return acc


def matrix_to_json(m: PolyMatrix) -> dict:
    """The shape, the row-major entries and the weight labels."""
    out = {
        "shape": [m.rows, m.cols],
        "entries": [scalar_to_json(p) for row in m.entries for p in row],
    }
    if m.row_weights is not None:
        out["row_weights"] = [str(w) for w in m.row_weights]
    if m.col_weights is not None:
        out["col_weights"] = [str(w) for w in m.col_weights]
    return out


def matrix_from_json(obj) -> PolyMatrix:
    """The matrix of matrix_to_json's object.  The object carries no basis
    labels, so the decoded matrix keeps its entries (it is not graded); it
    is equal to the encoded one, with the same hash."""
    rows, cols = obj["shape"]
    flat = [scalar_from_json(e) for e in obj["entries"]]
    if len(flat) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(flat)}")
    data = [flat[i * cols : (i + 1) * cols] for i in range(rows)]
    rw = obj.get("row_weights")
    cw = obj.get("col_weights")
    return PolyMatrix(
        data,
        tuple(HalfInt.parse(w) for w in rw) if rw is not None else None,
        tuple(HalfInt.parse(w) for w in cw) if cw is not None else None,
    )
