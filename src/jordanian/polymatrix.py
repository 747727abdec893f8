"""Exact matrices over the polynomial scalars, stored as integers.

Matrices carry optional weight labels on rows and columns (the half-integer
m of each basis vector) so representation-theoretic indexing stays explicit.
All operations are exact; a zero residual matrix is literally zero.

Storage.  A matrix holds one positive int ``den`` and ``data``: for each
row, a tuple of ``(col, terms)`` pairs for its nonzero entries, in column
order.  ``terms`` is a sorted tuple of ``(h-power, radicand, numerator)``
triples with squarefree radicands and nonzero int numerators, and the
entry is the sum of numerator/den * sqrt(radicand) * h**power over them.
``den`` is kept minimal: its gcd with every numerator is 1, and the zero
matrix has den 1.  Equal matrices therefore have equal storage, which is
what ``==`` and ``hash`` compare.

Arithmetic (``@``, ``kron``, ``+``, ``-``, scalar ``*`` and ``/``,
``transpose``, ``submatrix``/``column``/``row``, ``divide_h``) works on
this storage directly.  A product sums each output row in a dict keyed by
column, where an entry is one [h-power, radicand, numerator] term until a
second (h-power, radicand) reaches it and a small dict of terms from then
on.  Radicands multiply as in ``RadScalar.__mul__``, sqrt(n1)*sqrt(n2) =
g*sqrt((n1/g)*(n2/g)) with g = gcd(n1, n2), and with no gcd when either
radicand is 1.  A sum runs both rows, each scaled to the common
denominator, through the same accumulator.  ``kron`` and a scalar multiple
form each entry as one product, in column order.  Every result is brought
to its minimal denominator.  A sum with an all-zero operand returns the
other operand.

``HPoly`` is the boundary type.  The public constructor reads HPoly entries
(or anything ``as_hpoly`` accepts) once.  ``entries`` and ``entry()`` read
a tuple of tuples of canonical ``HPoly``, built on first read and then kept
on the instance; matrices that share storage share it.
"""

from __future__ import annotations

from bisect import bisect_left
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


# -- storage --------------------------------------------------------------------

_ZERO = HPoly.zero()
_RAD_ZERO = RadScalar.zero()


def _flatten(entries):
    """(den, data) of rows of HPoly entries, den their least common
    denominator (which is minimal)."""
    den = 1
    for row in entries:
        for p in row:
            for r in p.coeffs:
                for q in r.terms.values():
                    if q.denominator != 1:
                        den = lcm(den, q.denominator)
    return den, tuple(
        tuple((c, tuple(sorted((k, n, q.numerator * (den // q.denominator))
                               for k, r in enumerate(p.coeffs)
                               for n, q in r.terms.items())))
              for c, p in enumerate(row) if p.coeffs)
        for row in entries)


def _hpoly(terms, den):
    """The canonical HPoly of one stored entry."""
    powers = {}
    for k, n, v in terms:
        t = powers.get(k)
        if t is None:
            powers[k] = t = {}
        t[n] = Fraction(v, den)
    coeffs = [_RAD_ZERO] * (terms[-1][0] + 1)
    for k, t in powers.items():
        coeffs[k] = RadScalar._canonical(t)
    return HPoly._canonical(tuple(coeffs))


def _minimal(den, data):
    """(den, data) with den divided by its gcd with every numerator."""
    if den == 1:
        return den, data
    g = den
    for row in data:
        for _, terms in row:
            for t in terms:
                g = gcd(g, t[2])
                if g == 1:
                    return den, data
    return den // g, tuple(tuple((c, tuple((k, n, v // g) for k, n, v in terms))
                                 for c, terms in row) for row in data)


def _times(aterms, bterms):
    """The stored terms of the product of two nonzero entries (never zero:
    the scalars form an integral domain)."""
    if len(aterms) == 1 == len(bterms):
        (k1, n1, a), = aterms
        (k2, n2, b), = bterms
        if n1 == 1 or n2 == 1:
            return ((k1 + k2, n1 * n2, a * b),)
        g = gcd(n1, n2)
        return ((k1 + k2, (n1 // g) * (n2 // g), a * b * g),)
    acc = {}
    _accumulate(acc, aterms, ((0, bterms),))
    return _row(acc)[0][1]


def _accumulate(acc, aterms, brow):
    """Add the products of one entry's terms with every entry of a stored
    row into acc, keyed by column.  An entry is one [h-power, radicand,
    numerator] list until a second (h-power, radicand) reaches it, and a
    {(h-power, radicand): numerator} dict from then on."""
    get = acc.get
    for k1, n1, a in aterms:
        for c, bterms in brow:
            e = get(c)
            for k2, n2, b in bterms:
                if n1 == 1 or n2 == 1:
                    n, v = n1 * n2, a * b
                else:
                    g = gcd(n1, n2)
                    n, v = (n1 // g) * (n2 // g), a * b * g
                k = k1 + k2
                if e is None:
                    acc[c] = e = [k, n, v]
                elif e.__class__ is list:
                    if e[0] == k and e[1] == n:
                        e[2] += v
                    else:
                        acc[c] = e = {(e[0], e[1]): e[2], (k, n): v}
                else:
                    e[k, n] = e.get((k, n), 0) + v


def _row(acc, g=1):
    """The stored row of an accumulator, in column order, numerators
    divided by g; zero terms and entries are dropped."""
    row = []
    for c in sorted(acc):
        e = acc[c]
        if e.__class__ is list:
            k, n, v = e
            if v:
                row.append((c, ((k, n, v // g if g != 1 else v),)))
        else:
            terms = tuple(sorted((k, n, v // g) for (k, n), v in e.items() if v))
            if terms:
                row.append((c, terms))
    return tuple(row)


def _scaled_row(row, f):
    """A stored row with every numerator multiplied by the int f."""
    return row if f == 1 else tuple((c, tuple((k, n, v * f) for k, n, v in terms))
                                    for c, terms in row)


class _View:
    """The HPoly entries of one storage, built on first read and written
    once; matrices that share the storage share the cell."""

    __slots__ = ("rows",)

    def __init__(self):
        object.__setattr__(self, "rows", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"PolyMatrix views are read-only: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"PolyMatrix views are read-only: cannot delete {name!r}")


class PolyMatrix:
    """An immutable rows x cols matrix of polynomial entries.

    Memoized modules and tables hand out shared instances, so the slots are
    frozen once set.
    """

    __slots__ = ("rows", "cols", "row_weights", "col_weights", "den", "data",
                 "_view")

    def __init__(self, rows_data, row_weights=None, col_weights=None):
        entries = tuple(_coerce_row(r) for r in rows_data)
        cols = len(entries[0]) if entries else 0
        if any(len(r) != cols for r in entries):
            raise ShapeError("ragged rows")
        self._set(len(entries), cols, *_flatten(entries),
                  row_weights, col_weights)

    def _set(self, rows, cols, den, data, row_weights, col_weights, view=None):
        if rows < 1 or cols < 1:
            raise ShapeError("matrices must have at least one row and column")
        if row_weights is not None and len(row_weights) != rows:
            raise ShapeError(f"{len(row_weights)} row weights for {rows} rows")
        if col_weights is not None and len(col_weights) != cols:
            raise ShapeError(f"{len(col_weights)} col weights for {cols} cols")
        init = object.__setattr__
        init(self, "rows", rows)
        init(self, "cols", cols)
        init(self, "row_weights",
             tuple(row_weights) if row_weights is not None else None)
        init(self, "col_weights",
             tuple(col_weights) if col_weights is not None else None)
        init(self, "den", den)
        init(self, "data", data)
        init(self, "_view", view if view is not None else _View())

    @classmethod
    def _of(cls, rows, cols, den, data, row_weights, col_weights, view=None):
        """Wrap storage that is already minimal (kernel results)."""
        self = object.__new__(cls)
        self._set(rows, cols, den, data, row_weights, col_weights, view)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"PolyMatrix is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"PolyMatrix is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return PolyMatrix._of, (self.rows, self.cols, self.den, self.data,
                                self.row_weights, self.col_weights)

    def _relabeled(self, row_weights, col_weights):
        """This matrix with other weights, sharing storage and view."""
        if row_weights == self.row_weights and col_weights == self.col_weights:
            return self
        return PolyMatrix._of(self.rows, self.cols, self.den, self.data,
                              row_weights, col_weights, self._view)

    # -- constructors -----------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int, row_weights=None, col_weights=None):
        return cls._of(rows, cols, 1, ((),) * rows, row_weights, col_weights)

    @classmethod
    def identity(cls, n: int, weights=None):
        one = ((0, 1, 1),)
        return cls._of(n, n, 1, tuple(((i, one),) for i in range(n)),
                       weights, weights)

    @classmethod
    def _monomials(cls, rows, cols, den, entries):
        """The matrix with entry (i, k) = v/den * h**p for each
        ((i, k), (p, v)) of the dict entries, v an int; rational entries
        built straight into minimal storage, no HPoly per entry."""
        data = [[] for _ in range(rows)]
        for (i, k), (p, v) in sorted(entries.items()):
            if v:
                data[i].append((k, ((p, 1, v),)))
        return cls._of(rows, cols, *_minimal(den, tuple(map(tuple, data))),
                       None, None)

    @classmethod
    def diagonal(cls, values, weights=None):
        n = len(values)
        den, (row,) = _flatten([_coerce_row(values)])
        data = [()] * n
        for i, terms in row:
            data[i] = ((i, terms),)
        return cls._of(n, n, den, tuple(data), weights, weights)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def entries(self) -> tuple[tuple[HPoly, ...], ...]:
        """The entries as HPoly, built on first read."""
        view = self._view.rows
        if view is None:
            den, cols = self.den, self.cols
            rows = []
            for row in self.data:
                out = [_ZERO] * cols
                for c, terms in row:
                    out[c] = _hpoly(terms, den)
                rows.append(tuple(out))
            view = tuple(rows)
            object.__setattr__(self._view, "rows", view)
        return view

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
        rw = self.row_weights if self.row_weights == other.row_weights else None
        cw = self.col_weights if self.col_weights == other.col_weights else None
        if other.is_zero:
            return self._relabeled(rw, cw)
        if self.is_zero:
            return (other if sign > 0 else -other)._relabeled(rw, cw)
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        out = []
        for ra, rb in zip(self.data, other.data):
            if not rb:
                out.append(_scaled_row(ra, fa))
            elif not ra:
                out.append(_scaled_row(rb, fb))
            else:
                acc = {}
                _accumulate(acc, ((0, 1, fa),), ra)
                _accumulate(acc, ((0, 1, fb),), rb)
                out.append(_row(acc))
        return PolyMatrix._of(self.rows, self.cols, *_minimal(den, tuple(out)),
                              rw, cw)

    def __add__(self, other):
        return self._entrywise_sum(other, 1)

    def __sub__(self, other):
        return self._entrywise_sum(other, -1)

    def __neg__(self):
        return PolyMatrix._of(self.rows, self.cols, self.den,
                              tuple(_scaled_row(row, -1) for row in self.data),
                              self.row_weights, self.col_weights)

    def __mul__(self, scalar):
        """Every stored entry times the scalar's terms."""
        if isinstance(scalar, (int, Fraction)):
            den, st = scalar.denominator, ((0, 1, scalar.numerator),) if scalar else ()
        else:
            s = as_hpoly(scalar)
            if s is NotImplemented:
                return NotImplemented
            den, (row,) = _flatten(((s,),))
            st = row[0][1] if row else ()
        if not st:
            return PolyMatrix.zeros(self.rows, self.cols, self.row_weights,
                                    self.col_weights)
        data = tuple([tuple([(c, _times(t, st)) for c, t in row])
                      for row in self.data])
        return PolyMatrix._of(self.rows, self.cols,
                              *_minimal(self.den * den, data),
                              self.row_weights, self.col_weights)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        """Division by a single-term RadScalar or a nonzero rational; one
        scalar division, then a scalar multiple."""
        return self * (HPoly.one() / scalar)

    def __matmul__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        bdata = other.data
        accs = []
        for arow in self.data:
            acc = {}
            for k, aterms in arow:
                _accumulate(acc, aterms, bdata[k])
            accs.append(acc)
        g = den = self.den * other.den
        for e in (x for acc in accs for x in acc.values()):
            if g == 1:
                break
            g = gcd(g, e[2]) if e.__class__ is list else gcd(g, *e.values())
        return PolyMatrix._of(self.rows, other.cols, den // g,
                              tuple([_row(acc, g) for acc in accs]),
                              self.row_weights, other.col_weights)

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (self.shape == other.shape and self.den == other.den
                and self.data == other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, self.den, self.data))

    # -- maps and slices ------------------------------------------------------

    def map_entries(self, fn) -> "PolyMatrix":
        return PolyMatrix([[fn(p) for p in row] for row in self.entries],
                          self.row_weights, self.col_weights)

    def transpose(self) -> "PolyMatrix":
        cols = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.data):
            for c, terms in row:
                cols[c].append((i, terms))
        return PolyMatrix._of(self.cols, self.rows, self.den,
                              tuple(map(tuple, cols)),
                              self.col_weights, self.row_weights)

    def submatrix(self, row_idx, col_idx) -> "PolyMatrix":
        row_idx, col_idx = list(row_idx), list(col_idx)
        rw = tuple(self.row_weights[i] for i in row_idx) if self.row_weights else None
        cw = tuple(self.col_weights[k] for k in col_idx) if self.col_weights else None
        cols = self.cols
        place = {}
        for new, k in enumerate(col_idx):
            if not -cols <= k < cols:
                raise IndexError(f"column {k} out of range for {cols} columns")
            place.setdefault(k % cols, []).append(new)
        out = []
        for i in row_idx:
            orow = [(new, terms) for c, terms in self.data[i]
                    if c in place for new in place[c]]
            orow.sort()  # new positions are distinct: terms never compared
            out.append(tuple(orow))
        return PolyMatrix._of(len(row_idx), len(col_idx),
                              *_minimal(self.den, tuple(out)), rw, cw)

    def column(self, k: int) -> "PolyMatrix":
        cols = self.cols
        if not -cols <= k < cols:
            raise IndexError(f"column {k} out of range for {cols} columns")
        k %= cols
        out = []
        for row in self.data:
            i = bisect_left(row, (k,))  # (k,) sorts before (k, terms)
            out.append(((0, row[i][1]),) if i < len(row) and row[i][0] == k
                       else ())
        return PolyMatrix._of(self.rows, 1, *_minimal(self.den, tuple(out)),
                              self.row_weights,
                              self.col_weights and (self.col_weights[k],))

    def row(self, i: int) -> "PolyMatrix":
        return PolyMatrix._of(1, self.cols, *_minimal(self.den, (self.data[i],)),
                              self.row_weights and (self.row_weights[i],),
                              self.col_weights)

    def scalar(self) -> HPoly:
        """Unwrap a 1x1 matrix."""
        if self.shape != (1, 1):
            raise ShapeError(f"not a 1x1 matrix: {self.shape}")
        return self.entries[0][0]

    def divide_h(self, k: int = 1) -> "PolyMatrix":
        """Exact division by h**k; raises if any entry is not divisible."""
        if k < 0:
            raise ValueError(f"negative h power: {k}")
        out = []
        for row in self.data:
            orow = []
            for c, terms in row:
                if terms[0][0] < k:
                    raise ValueError(f"{_hpoly(terms, self.den)} is not "
                                     f"divisible by h^{k}")
                orow.append((c, tuple((p - k, n, v) for p, n, v in terms)))
            out.append(tuple(orow))
        return PolyMatrix._of(self.rows, self.cols, self.den, tuple(out),
                              self.row_weights, self.col_weights)

    def eval_h(self, value) -> "PolyMatrix":
        """Entrywise evaluation at rational h; the result has constant entries."""
        return self.map_entries(lambda p: HPoly.constant(p.eval_h(value)))

    # -- structure ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not any(self.data)

    def max_degree(self) -> int:
        # Terms are sorted by h-power, so an entry's last term has its degree.
        return max((terms[-1][0] for row in self.data for _, terms in row),
                   default=-1)

    def first_nonzero(self):
        """(i, k, entry) of the first nonzero entry, or None."""
        for i, row in enumerate(self.data):
            if row:
                k, terms = row[0]
                return i, k, _hpoly(terms, self.den)
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
    bcols = b.cols
    data = tuple(tuple([(k * bcols + c, _times(at, bt)) for k, at in arow
                        for c, bt in brow])
                 for arow in a.data for brow in b.data)
    return PolyMatrix._of(a.rows * b.rows, a.cols * b.cols,
                          *_minimal(a.den * b.den, data), None, None)


def commutator(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    return a @ b - b @ a


def anticommutator(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    return a @ b + b @ a


def _msum(mats, empty: PolyMatrix | None = None) -> PolyMatrix:
    """The sum of mats, added left to right.  An empty sum gives empty, or
    raises ValueError when no empty value is given."""
    acc = None
    for m in mats:
        acc = m if acc is None else acc + m
    if acc is None:
        if empty is None:
            raise ValueError("empty sum")
        return empty
    return acc


def power_series(a: PolyMatrix, coeff) -> PolyMatrix:
    """sum_k coeff(k) a**k for nilpotent a: the series ends at the first
    zero power.  Raises if a is not nilpotent."""
    if not a.is_square:
        raise ShapeError(f"power series need a square matrix, got {a.shape}")
    power = PolyMatrix.identity(a.rows, a.row_weights)
    acc = power * coeff(0)
    for k in range(1, a.rows + 1):
        power = power @ a
        if power.is_zero:
            return acc
        acc = acc + power * coeff(k)
    raise ValueError("matrix is not nilpotent")


def exp_nilpotent(a: PolyMatrix, factor=1) -> PolyMatrix:
    """exp(factor * a) for nilpotent factor * a, as a terminating series.

    The factor may be any scalar (an h-monomial, typically).  Raises if
    factor * a is not nilpotent.
    """
    return power_series(a * factor, lambda k: Fraction(1, factorial(k)))


def unipotent_inverse(m: PolyMatrix) -> PolyMatrix:
    """Inverse of 1 + n with n nilpotent, via the terminating Neumann series."""
    return power_series(PolyMatrix.identity(m.rows, m.row_weights) - m,
                        lambda k: 1)
