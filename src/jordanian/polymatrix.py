"""Dense matrices over the exact polynomial scalars.

Matrices carry optional weight labels on rows and columns (the half-integer
m of each basis vector) so representation-theoretic indexing stays explicit.
All operations are exact; a zero residual matrix is literally zero.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .halfint import HalfInt
from .hpoly import HPoly, as_hpoly


class ShapeError(ValueError):
    """Raised when matrix shapes do not line up for an operation."""


def _coerce_row(row):
    out = []
    for x in row:
        p = as_hpoly(x)
        if p is NotImplemented:
            raise TypeError(f"bad matrix entry {x!r}")
        out.append(p)
    return tuple(out)


class PolyMatrix:
    """An immutable rows x cols matrix of HPoly entries.

    Memoized modules and tables hand out shared instances, so the slots are
    frozen once set.
    """

    __slots__ = ("rows", "cols", "entries", "row_weights", "col_weights")

    def __init__(self, rows_data, row_weights=None, col_weights=None):
        entries = tuple(_coerce_row(r) for r in rows_data)
        if not entries or not entries[0]:
            raise ShapeError("matrices must have at least one row and column")
        rows, cols = len(entries), len(entries[0])
        if any(len(r) != cols for r in entries):
            raise ShapeError("ragged rows")
        if row_weights is not None and len(row_weights) != rows:
            raise ShapeError(f"{len(row_weights)} row weights for {rows} rows")
        if col_weights is not None and len(col_weights) != cols:
            raise ShapeError(f"{len(col_weights)} col weights for {cols} cols")
        init = object.__setattr__
        init(self, "entries", entries)
        init(self, "rows", rows)
        init(self, "cols", cols)
        init(self, "row_weights",
             tuple(row_weights) if row_weights is not None else None)
        init(self, "col_weights",
             tuple(col_weights) if col_weights is not None else None)

    def __setattr__(self, name, value):
        raise AttributeError(f"PolyMatrix is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"PolyMatrix is immutable: cannot delete {name!r}")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int, row_weights=None, col_weights=None):
        z = HPoly.zero()
        return cls([[z] * cols for _ in range(rows)], row_weights, col_weights)

    @classmethod
    def identity(cls, n: int, weights=None):
        one = HPoly.one()
        z = HPoly.zero()
        return cls([[one if i == k else z for k in range(n)] for i in range(n)],
                   weights, weights)

    @classmethod
    def diagonal(cls, values, weights=None):
        values = [as_hpoly(v) for v in values]
        z = HPoly.zero()
        n = len(values)
        return cls([[values[i] if i == k else z for k in range(n)] for i in range(n)],
                   weights, weights)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def entry(self, i: int, k: int) -> HPoly:
        return self.entries[i][k]

    def row_index(self, m: HalfInt) -> int:
        if self.row_weights is None:
            raise ValueError("matrix has no row weights")
        return self.row_weights.index(m)

    def col_index(self, m: HalfInt) -> int:
        if self.col_weights is None:
            raise ValueError("matrix has no col weights")
        return self.col_weights.index(m)

    # -- arithmetic ---------------------------------------------------------

    def _same_shape(self, other):
        if self.shape != other.shape:
            raise ShapeError(f"shape mismatch: {self.shape} vs {other.shape}")

    def __add__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        self._same_shape(other)
        return PolyMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)],
            self.row_weights if self.row_weights == other.row_weights else None,
            self.col_weights if self.col_weights == other.col_weights else None)

    def __sub__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        self._same_shape(other)
        return PolyMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)],
            self.row_weights if self.row_weights == other.row_weights else None,
            self.col_weights if self.col_weights == other.col_weights else None)

    def __neg__(self):
        return self.map_entries(lambda p: -p)

    def __mul__(self, scalar):
        s = as_hpoly(scalar)
        if s is NotImplemented:
            return NotImplemented
        return self.map_entries(lambda p: p * s)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self.map_entries(lambda p: p / scalar)

    def __matmul__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        zero = HPoly.zero()
        out = []
        for i in range(self.rows):
            arow = self.entries[i]
            orow = [zero] * other.cols
            for k, a in enumerate(arow):
                if not a:
                    continue
                brow = other.entries[k]
                for c, b in enumerate(brow):
                    if b:
                        orow[c] = orow[c] + a * b
            out.append(orow)
        return PolyMatrix(out, self.row_weights, other.col_weights)

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.shape == other.shape and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    # -- maps and slices ------------------------------------------------------

    def map_entries(self, fn) -> "PolyMatrix":
        return PolyMatrix([[fn(p) for p in row] for row in self.entries],
                          self.row_weights, self.col_weights)

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix([[self.entries[i][k] for i in range(self.rows)]
                           for k in range(self.cols)],
                          self.col_weights, self.row_weights)

    def submatrix(self, row_idx, col_idx) -> "PolyMatrix":
        rw = tuple(self.row_weights[i] for i in row_idx) if self.row_weights else None
        cw = tuple(self.col_weights[k] for k in col_idx) if self.col_weights else None
        return PolyMatrix([[self.entries[i][k] for k in col_idx] for i in row_idx], rw, cw)

    def column(self, k: int) -> "PolyMatrix":
        return self.submatrix(range(self.rows), [k])

    def row(self, i: int) -> "PolyMatrix":
        return self.submatrix([i], range(self.cols))

    def scalar(self) -> HPoly:
        """Unwrap a 1x1 matrix."""
        if self.shape != (1, 1):
            raise ShapeError(f"not a 1x1 matrix: {self.shape}")
        return self.entries[0][0]

    def divide_h(self, k: int = 1) -> "PolyMatrix":
        return self.map_entries(lambda p: p.divide_h(k))

    def eval_h(self, value) -> "PolyMatrix":
        """Entrywise evaluation at rational h; the result has constant entries."""
        return self.map_entries(lambda p: HPoly.constant(p.eval_h(value)))

    # -- structure ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return all(not p for row in self.entries for p in row)

    def max_degree(self) -> int:
        return max((p.degree for row in self.entries for p in row), default=-1)

    def first_nonzero(self):
        """(i, k, entry) of the first nonzero entry, or None."""
        for i, row in enumerate(self.entries):
            for k, p in enumerate(row):
                if p:
                    return i, k, p
        return None

    def __str__(self):
        cells = [[str(p) for p in row] for row in self.entries]
        widths = [max(len(cells[i][k]) for i in range(self.rows)) for k in range(self.cols)]
        lines = []
        for row in cells:
            lines.append("[ " + "  ".join(c.rjust(w) for c, w in zip(row, widths)) + " ]")
        return "\n".join(lines)

    def __repr__(self):
        return f"PolyMatrix({self.rows}x{self.cols})"


def kron(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Kronecker product; the first factor owns the major index."""
    zero = HPoly.zero()
    rows = a.rows * b.rows
    cols = a.cols * b.cols
    out = [[zero] * cols for _ in range(rows)]
    for i in range(a.rows):
        for k in range(a.cols):
            aik = a.entries[i][k]
            if not aik:
                continue
            for r in range(b.rows):
                brow = b.entries[r]
                orow = out[i * b.rows + r]
                for c in range(b.cols):
                    if brow[c]:
                        orow[k * b.cols + c] = aik * brow[c]
    return PolyMatrix(out)


def commutator(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    return a @ b - b @ a


def anticommutator(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    return a @ b + b @ a


def exp_nilpotent(a: PolyMatrix, factor=1) -> PolyMatrix:
    """exp(factor * a) for nilpotent a, as a terminating series.

    The factor may be any scalar (an h-monomial, typically).  Raises if a
    is not nilpotent.
    """
    if not a.is_square:
        raise ShapeError(f"exp needs a square matrix, got {a.shape}")
    f = as_hpoly(factor)
    acc = PolyMatrix.identity(a.rows, a.row_weights)
    power = acc
    fk = HPoly.one()
    for k in range(1, a.rows + 1):
        power = power @ a
        if power.is_zero:
            return acc
        fk = fk * f
        acc = acc + power * (fk / Fraction(factorial(k)))
    raise ValueError("matrix is not nilpotent")


def unipotent_inverse(m: PolyMatrix) -> PolyMatrix:
    """Inverse of 1 + n with n nilpotent, via the terminating Neumann series."""
    if not m.is_square:
        raise ShapeError(f"inverse needs a square matrix, got {m.shape}")
    n = m - PolyMatrix.identity(m.rows, m.row_weights)
    acc = PolyMatrix.identity(m.rows, m.row_weights)
    power = acc
    for k in range(1, m.rows + 1):
        power = power @ n
        if power.is_zero:
            return acc
        acc = acc + power * Fraction(-1) ** k
    raise ValueError("matrix is not unipotent")
