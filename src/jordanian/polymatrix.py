"""Dense matrices over the exact polynomial scalars.

Matrices carry optional weight labels on rows and columns (the half-integer
m of each basis vector) so representation-theoretic indexing stays explicit.
All operations are exact; a zero residual matrix is literally zero.

The arithmetic (``@``, ``kron``, ``+``, ``-``, scalar ``*`` and ``/``) runs
as one fused exact kernel instead of composing the scalar ring operators:

* each operand entry is read once, as a flat list of
  (h-power, radicand, coefficient) terms.  For products the coefficients
  are Python-int numerators over a common denominator: one per row of the
  left operand, one for the whole right operand;
* each output entry is summed in a single dict keyed by
  (h-power, radicand).  Radicands multiply as in ``RadScalar.__mul__``:
  sqrt(n1)*sqrt(n2) = g*sqrt((n1/g)*(n2/g)) with g = gcd(n1, n2);
* each output entry then becomes exactly one canonical ``HPoly`` (zero
  coefficients dropped, trailing h-powers trimmed), built by the private
  constructors of ``HPoly`` and ``RadScalar``;
* zero entries add nothing, and a sum with a zero entry returns the other
  entry itself.

The left operand is flattened row by row, and no flat copy outlives the
operation, so storage is the tuple of tuples of ``HPoly`` it always was.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm

from .halfint import HalfInt
from .hpoly import HPoly, as_hpoly
from .radical import RadScalar


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


# -- the kernel -----------------------------------------------------------------

_ZERO = HPoly.zero()
_RAD_ZERO = RadScalar.zero()


def _flatten(rows):
    """Read rows of HPoly entries once, over one common denominator.

    Returns (den, flat): flat[i] lists (column, terms) for the nonzero
    entries of row i, each term an (h-power, radicand, numerator) triple
    whose value is numerator / den.
    """
    den = 1
    fracs = []
    for row in rows:
        frow = []
        for c, p in enumerate(row):
            if p.coeffs:
                terms = [(k, n, q) for k, r in enumerate(p.coeffs)
                         for n, q in r.terms.items()]
                for _, _, q in terms:
                    den = lcm(den, q.denominator)
                frow.append((c, terms))
        fracs.append(frow)
    return den, [[(c, [(k, n, q.numerator * (den // q.denominator))
                        for k, n, q in terms])
                  for c, terms in frow] for frow in fracs]


def _accumulate(acc, aterms, bterms):
    """Add the product of two flat term lists into acc."""
    get = acc.get
    for k1, n1, a in aterms:
        for k2, n2, b in bterms:
            if n1 == 1:
                key, v = (k1 + k2, n2), a * b
            elif n2 == 1:
                key, v = (k1 + k2, n1), a * b
            elif n1 == n2:
                key, v = (k1 + k2, 1), a * b * n1
            else:
                g = gcd(n1, n2)
                key, v = (k1 + k2, (n1 // g) * (n2 // g)), a * b * g
            acc[key] = get(key, 0) + v


def _hpoly(acc, den=None):
    """The canonical HPoly of {(h-power, radicand): value}.

    Values are int numerators over den, or Fractions when den is None;
    zero values are dropped.
    """
    powers = {}
    for (k, n), v in acc.items():
        if v:
            if den is not None:
                v = Fraction(v) if den == 1 else Fraction(v, den)
            t = powers.get(k)
            if t is None:
                powers[k] = t = {}
            t[n] = v
    if not powers:
        return _ZERO
    coeffs = [_RAD_ZERO] * (max(powers) + 1)
    for k, t in powers.items():
        coeffs[k] = RadScalar._canonical(t)
    return HPoly._canonical(tuple(coeffs))


def _neg(p):
    if not p.coeffs:
        return p
    return HPoly._canonical(tuple(
        RadScalar._canonical({n: -q for n, q in r.terms.items()}) if r.terms else r
        for r in p.coeffs))


def _sum(a, b, sign):
    """a + sign*b for two HPoly entries."""
    if not b.coeffs:
        return a
    if not a.coeffs:
        return b if sign > 0 else _neg(b)
    acc = {(k, n): q for k, r in enumerate(a.coeffs) for n, q in r.terms.items()}
    get = acc.get
    for k, r in enumerate(b.coeffs):
        for n, q in r.terms.items():
            key = (k, n)
            v = get(key)
            if sign < 0:
                q = -q
            acc[key] = q if v is None else v + q
    return _hpoly(acc)


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

    def __reduce__(self):
        return PolyMatrix._of, (self.entries, self.row_weights, self.col_weights)

    @classmethod
    def _of(cls, entries, row_weights, col_weights):
        """Wrap rows that are already tuples of HPoly (kernel results);
        weights are tuples or None."""
        self = object.__new__(cls)
        init = object.__setattr__
        init(self, "entries", entries)
        init(self, "rows", len(entries))
        init(self, "cols", len(entries[0]))
        init(self, "row_weights", row_weights)
        init(self, "col_weights", col_weights)
        return self

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

    def _entrywise_sum(self, other, sign):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ShapeError(f"shape mismatch: {self.shape} vs {other.shape}")
        return PolyMatrix._of(
            tuple(tuple(_sum(a, b, sign) for a, b in zip(ra, rb))
                  for ra, rb in zip(self.entries, other.entries)),
            self.row_weights if self.row_weights == other.row_weights else None,
            self.col_weights if self.col_weights == other.col_weights else None)

    def __add__(self, other):
        return self._entrywise_sum(other, 1)

    def __sub__(self, other):
        return self._entrywise_sum(other, -1)

    def __neg__(self):
        return PolyMatrix._of(tuple(tuple(_neg(p) for p in row)
                                    for row in self.entries),
                              self.row_weights, self.col_weights)

    def __mul__(self, scalar):
        s = as_hpoly(scalar)
        if s is NotImplemented:
            return NotImplemented
        # A scalar multiple is the Kronecker product with a 1x1 matrix.
        return PolyMatrix._of(_kron_entries(self, PolyMatrix._of(((s,),), None, None)),
                              self.row_weights, self.col_weights)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (HPoly.one() / scalar)

    def __matmul__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        bden, bflat = _flatten(other.entries)
        cols = other.cols
        out = []
        for row in self.entries:
            aden, (aflat,) = _flatten((row,))
            accs = {}
            for k, aterms in aflat:
                for c, bterms in bflat[k]:
                    acc = accs.get(c)
                    if acc is None:
                        accs[c] = acc = {}
                    _accumulate(acc, aterms, bterms)
            orow = [_ZERO] * cols
            den = aden * bden
            for c, acc in accs.items():
                orow[c] = _hpoly(acc, den)
            out.append(tuple(orow))
        return PolyMatrix._of(tuple(out), self.row_weights, other.col_weights)

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
        return PolyMatrix._of(tuple(zip(*self.entries)),
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
    return PolyMatrix._of(_kron_entries(a, b), None, None)


def _kron_entries(a, b):
    """The entries of kron(a, b).  An entry that is 1 times an entry of the
    other factor is that entry itself."""
    bden, bflat = _flatten(b.entries)
    bcols = b.cols
    cols = a.cols * bcols
    out = []
    b_one = [(0, 1, bden)]
    for arow in a.entries:
        aden, (aflat,) = _flatten((arow,))
        den = aden * bden
        a_one = [(0, 1, aden)]
        for r, brow in enumerate(bflat):
            orow = [_ZERO] * cols
            for k, aterms in aflat:
                base = k * bcols
                for c, bterms in brow:
                    if aterms == a_one:
                        orow[base + c] = b.entries[r][c]
                    elif bterms == b_one:
                        orow[base + c] = arow[k]
                    else:
                        acc = {}
                        _accumulate(acc, aterms, bterms)
                        orow[base + c] = _hpoly(acc, den)
            out.append(tuple(orow))
    return tuple(out)


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
