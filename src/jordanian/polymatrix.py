"""Exact matrices over the polynomial scalars, stored as integers.

Matrices carry optional weight labels on rows and columns (the half-integer
m of each basis vector) so representation-theoretic indexing stays explicit.
They sit beside the bases below, not in them: weighted and unweighted
matrices (``rep.zp``, ``PolyMatrix.identity(n)``) share one basis, and ``@``
needs ``a.cb is b.rb``, so weighted bases would send mixed products to
``_entrywise``.  All operations are exact; a zero residual matrix is
literally zero.

Storage.  Every matrix the package builds has one monomial per entry, its
h-power and radical following the bases of the rows and columns: a basis
labels each index with an (h-offset, squarefree radical).  Graded storage
keeps a dict ``{col: numerator}`` of ints per row over one positive int
denominator, a row basis, a column basis and one constant (shift, rad);
the entry at (i, c) is numerator/den * sqrt(p_i rad / q_c) *
h**(a_i + shift - b_c) for the labels (a_i, p_i) and (b_c, q_c).  Bases are
interned by their labels moved by the gauge of the first label (which
moves into the constant), so the ladder basis of a spin, the product
basis of a pair and its coupled basis are one object each, however a
matrix reaches them: from entries, a slice or a reversal.

The bases are a certificate, not an assumption: ``_fit`` checks every
entry against offered bases in one pass, and the public constructor offers
the labels ``_derived`` finds over the nonzero pattern, each component
starting from the spin (rows-1)/2 ladder gauge (-i, sqfree(i! (rows-1-i)!));
a construction that knows its labels (the coupling, ladder, boson and Fock
matrices) builds graded storage from int rows and raw labels
(``_labelled``), and a family's T from its components' rows (``_beside``).
Every other construction reads its entries through one reader,
``_monomials``: each nonzero entry as (h-power, squarefree radicand,
numerator) over one int denominator, or a refusal when an entry has two or
more terms.  So there are two storages: a matrix built by the caller with
such an entry, or that no labels fit, keeps only its HPoly entries.  A
graded denominator is kept minimal, so ``==`` between graded storages in
the same bases and constant is plain equality of ``den`` and rows; any
other ``==``, ``hash`` and pickling read the entries, which are canonical.

Arithmetic.  On graded operands ``@`` (the left column basis is the right
row basis; constants add), ``+``, ``-`` (the same bases and constant),
``kron`` (bases compose, kept per pair of bases), scalar ``*`` and ``/`` by
one monomial (the constant moves), ``transpose`` (the dual bases, offsets
negated), slices and ``divide_h`` do integer work only, a slice moving the
gauge of its first labels into the constant.  Anything else (an operand
that is not graded, graded bases or constants that differ, a scalar of two
or more terms, a power of h that does not divide) goes through one
entrywise fallback, ``_entrywise``: HPoly arithmetic entry by entry, as
tests/matrix_oracle.py computes, with the result certified again by the
public constructor.  No construction of the library reaches it, so its
speed does not matter.  A sum with an all-zero operand returns the other.

``HPoly`` is the boundary type.  The public constructor reads HPoly entries
(or anything ``as_hpoly`` accepts) once.  ``entries`` reads a tuple of
tuples of canonical ``HPoly``: the entries themselves for a matrix that is
not graded, and for graded storage built on first read and then kept on
the instance's view; matrices that share storage share the view.
``entry()`` of a graded matrix reads its one entry from the storage without
building the view, so reading a coefficient of a memoized matrix builds no
slice and no view.  A graded entry is one shared ``HPoly`` per monomial
value per process (``_gentry`` interns it), so ``entry()``, ``entries``,
slices and requests all read the same object, and its str() and JSON texts
are formed once.  The view keeps the matrix's texts too, each formed once:
its str() and the JSON text of its entries that the CLI writes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import factorial, gcd, lcm

from .hpoly import HPoly, as_hpoly
from .radical import RadScalar, _legendre_exponent, _primes_up_to
from .record import Frozen


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


# -- the reader ----------------------------------------------------------------

_ZERO = HPoly.zero()
_RAD_ZERO = RadScalar.zero()


def _monomials(entries):
    """(den, rows) of rows of HPoly entries: per row a dict {col: (k, n, num)}
    of its nonzero entries num/den * sqrt(n) * h**k in column order, den
    their least common denominator (which is minimal); None when an entry
    has two or more terms."""
    den, rows = 1, []
    for row in entries:
        out = {}
        for c, p in enumerate(row):
            if p.coeffs:
                *low, top = p.coeffs
                if len(top.terms) != 1 or any(low):
                    return None
                (n, q), = top.terms.items()
                out[c] = (len(low), n, q)
                if q.denominator != 1:
                    den = lcm(den, q.denominator)
        rows.append(out)
    return den, [{c: (k, n, q.numerator * (den // q.denominator))
                  for c, (k, n, q) in row.items()} for row in rows]


# -- bases ----------------------------------------------------------------------

def _sf(x, y):
    """sqfree(x * y) for squarefree x and y: the product of radical classes."""
    g = gcd(x, y)
    return (x // g) * (y // g)


@lru_cache(maxsize=None)
def _natural(n):
    """The label (-i, sqfree(i! (n-1-i)!)) of each row i of an n-row
    matrix: the gauge of the spin (n-1)/2 ladder basis, which the
    certificate gives the first row of each component."""
    primes = _primes_up_to(n)
    out = []
    for i in range(n):
        c = 1
        for p in primes:
            if (_legendre_exponent(i, p) + _legendre_exponent(n - 1 - i, p)) % 2:
                c *= p
        out.append((-i, c))
    return tuple(out)


class _Basis:
    """The labels (h-offset, squarefree radical) of one index space, the
    first (0, 1); interned, with its dual and Kronecker products kept."""

    __slots__ = ("labels", "dual", "krons")

    def __init__(self, labels):
        self.labels, self.dual, self.krons = labels, None, {}


_BASES: dict[tuple, _Basis] = {}


def _interned(labels):
    return _BASES.get(labels) or _BASES.setdefault(labels, _Basis(labels))


def _basis(labels):
    """The basis of raw labels (a_i, p_i), or the basis given: the labels
    moved by the gauge of the first, (a_i - a0, sqfree(p_i p0))."""
    if labels.__class__ is _Basis:
        return labels
    a0, p0 = labels[0] if labels else (0, 1)
    return _interned(tuple((a - a0, _sf(p, p0)) for a, p in labels))


def _dual(basis):
    """The basis of the transposed side: offsets negated."""
    if basis.dual is None:
        basis.dual = _interned(tuple((-a, p) for a, p in basis.labels))
        basis.dual.dual = basis
    return basis.dual


def _kron_bases(left, right):
    """The basis of a Kronecker index space, offsets adding and radicals
    multiplying, and the factor gcd(p, q) of each index (None when all are
    1), kept on left: sqrt(p) sqrt(q) = gcd(p, q) sqrt(sqfree(p q))."""
    out = left.krons.get(right)
    if out is None:
        labels, factors = [], []
        for a, p in left.labels:
            for b, q in right.labels:
                f = gcd(p, q)
                labels.append((a + b, (p // f) * (q // f)))
                factors.append(f)
        out = left.krons[right] = (_interned(tuple(labels)),
                                   None if max(factors) == 1 else factors)
    return out


# -- graded storage -------------------------------------------------------------

class _Graded:
    """Int rows {col: numerator} over den in the bases rb and cb with the
    constant (shift, rad), as in the module docstring."""

    __slots__ = ("den", "rows", "rb", "cb", "shift", "rad")

    def __init__(self, den, rows, rb, cb, shift, rad):
        self.den, self.rows, self.rb, self.cb = den, rows, rb, cb
        self.shift, self.rad = shift, rad


def _graded(den, rows, rb, cb, shift, rad):
    """Graded storage with den minimal: divided by its gcd with every
    numerator, so equal matrices in the same bases and constant have equal
    den and rows."""
    if den != 1 and (g := gcd(den, *chain.from_iterable(map(dict.values, rows)))) != 1:
        den //= g
        rows = [{c: v // g for c, v in row.items()} if row else row for row in rows]
    return _Graded(den, tuple(rows), rb, cb, shift, rad)


def _fit(den, cells, rb, cb):
    """Graded storage of the monomial rows (den, cells) that _monomials
    reads in the bases rb and cb, or None when no one constant fits them
    all: one pass.  v sqrt(n) = V/rad sqrt(p rad / q), V = v q/y rad/g for
    g = gcd(p, rad) and y = gcd(sqfree(p rad), q)."""
    cl = cb.labels
    shift = rad = None
    rows = []
    for (a, p), row in zip(rb.labels, cells):
        out = {}
        for c, (k, n, v) in row.items():
            b, q = cl[c]
            if shift is None:
                shift, rad = k - a + b, _sf(_sf(n, p), q)
            g = gcd(p, rad)
            x = (p // g) * (rad // g)
            y = gcd(x, q)
            if k != a + shift - b or (x // y) * (q // y) != n:
                return None
            out[c] = v * (q // y) * (rad // g)
        rows.append(out)
    return _graded(den * (rad or 1), rows, rb, cb, shift or 0, rad or 1)


def _derived(nrows, ncols, cells):
    """Row and column labels for the monomial rows cells, propagated
    breadth first over the nonzero pattern from each entry (k, n, num):
    h-power k = a_i - b_c and radicand n = sqfree(p_i q_c).  The first row
    i of a component is labelled with the spin (nrows-1)/2 gauge; an empty
    row takes it too, and an empty column the spin (ncols-1)/2 gauge moved
    as far as the first labelled column is.  _fit checks them."""
    at_col = [[] for _ in range(ncols)]
    for i, row in enumerate(cells):
        for c in row:
            at_col[c].append(i)
    start, rl, cl = _natural(nrows), [None] * nrows, [None] * ncols
    for first, row in enumerate(cells):
        if row and rl[first] is None:
            rl[first], todo = start[first], [first]
            while todo:
                i = todo.pop()
                a, p = rl[i]
                for c, (k, n, _) in cells[i].items():
                    if cl[c] is None:
                        cl[c] = b, q = a - k, _sf(p, n)
                        for r in at_col[c]:
                            if rl[r] is None:
                                k2, n2, _ = cells[r][c]
                                rl[r] = (b + k2, _sf(q, n2))
                                todo.append(r)
    natural = _natural(ncols)
    d, r = next(((lab[0] - x, _sf(lab[1], y)) for lab, (x, y) in zip(cl, natural)
                 if lab is not None), (0, 1))
    return ([lab or s for lab, s in zip(rl, start)],
            [lab or (x + d, _sf(y, r)) for lab, (x, y) in zip(cl, natural)])


def _certify(ncols, read):
    """Graded storage of read, the (den, cells) of _monomials, in the bases
    _derived finds; None when read is None or no labels fit."""
    if read is None:
        return None
    den, cells = read
    rl, cl = _derived(len(cells), ncols, cells)
    return _fit(den, cells, _basis(rl), _basis(cl))


def _on(den, rows, rl, cl, shift, rad):
    """Graded storage of int rows with the raw labels rl, cl and the
    constant (shift, rad), as in _Graded, in the bases of the labels: the
    gauge (a0, p0) of the first label of each side moves into the constant,
    since sqrt(p) = gcd(p, p0) / p0 * sqrt(sqfree(p p0)) * sqrt(p0).  The
    rows are kept as given when every factor they would take is 1."""
    rb, cb = _basis(rl), _basis(cl)
    (a0, p0), (b0, q0) = (x[0] if x else (0, 1) for x in (rl, cl))
    if p0 != 1 or q0 != 1:  # sqrt(p0 q0 rad) = f sqrt(rad')
        rowf, colf = [gcd(p, p0) for _, p in rl], [gcd(q, q0) for _, q in cl]
        f, big = gcd(p0, q0) * gcd(_sf(p0, q0), rad), lcm(*colf)
        if f != 1 or p0 != 1 or min(colf, default=big) != big:  # else all 1
            rows = [{c: v * f * rowf[i] * (big // colf[c]) for c, v in row.items()}
                    if row else row for i, row in enumerate(rows)]
        den, rad = den * p0 * big, _sf(_sf(p0, q0), rad)
    return _graded(den, rows, rb, cb, shift + a0 - b0, rad)


def _gmatmul(a, b):
    """a @ b on graded storage, or None when the left column basis is not
    the right row basis.  Constants add: sqrt(ra) sqrt(rb) = f sqrt(r) for
    f = gcd(ra, rb)."""
    if a.cb is not b.rb:
        return None
    brows = b.rows
    out = []
    for arow in a.rows:
        acc = {}
        get = acc.get
        for k, x in arow.items():
            for c, y in brows[k].items():
                acc[c] = get(c, 0) + x * y
        if 0 in acc.values():
            acc = {c: v for c, v in acc.items() if v}
        out.append(acc)
    f = gcd(a.rad, b.rad)
    if f != 1:
        out = [{c: v * f for c, v in row.items()} for row in out]
    return _graded(a.den * b.den, out, a.rb, b.cb, a.shift + b.shift,
                   (a.rad // f) * (b.rad // f))


def _gsum(a, b, sign):
    """a + sign * b on graded storage in the same bases and constant."""
    if a.rb is not b.rb or a.cb is not b.cb or (a.shift, a.rad) != (b.shift, b.rad):
        return None
    den = lcm(a.den, b.den)
    fa, fb = den // a.den, sign * (den // b.den)
    out = []
    for x, y in zip(a.rows, b.rows):
        if not y:
            out.append(x if fa == 1 else {c: v * fa for c, v in x.items()})
        else:
            acc = x.copy() if fa == 1 else {c: v * fa for c, v in x.items()}
            get = acc.get
            for c, v in y.items():
                acc[c] = get(c, 0) + v * fb
            if 0 in acc.values():
                acc = {c: v for c, v in acc.items() if v}
            out.append(acc)
    return _graded(den, out, a.rb, a.cb, a.shift, a.rad)


def _gkron(a, b):
    """kron(a, b) on graded storage: bases compose and constants add."""
    rb, rowf = _kron_bases(a.rb, b.rb)
    cb, colf = _kron_bases(a.cb, b.cb)
    f = gcd(a.rad, b.rad)
    big = 1 if colf is None else lcm(*colf)
    w = len(b.cb.labels)
    out = []
    i = 0
    for x in a.rows:
        for y in b.rows:
            g = f if rowf is None else f * rowf[i]
            i += 1
            row = {}
            for k, u in x.items():
                base, u = k * w, u * g
                if colf is None:
                    for c, v in y.items():
                        row[base + c] = u * v
                else:
                    for c, v in y.items():
                        row[base + c] = u * v * (big // colf[base + c])
            out.append(row)
    return _graded(a.den * b.den * big, out, rb, cb, a.shift + b.shift,
                   (a.rad // f) * (b.rad // f))


def _gscale(g, k, n, num, den):
    """g times num/den * sqrt(n) * h**k: the constant moves by (k, n)."""
    f = gcd(g.rad, n)
    rad = (g.rad // f) * (n // f)
    f *= num
    rows = g.rows if f == 1 else [{c: v * f for c, v in row.items()}
                                  for row in g.rows]
    return _graded(g.den * den, rows, g.rb, g.cb, g.shift + k, rad)


def _gtranspose(g):
    """The transpose, in the dual bases with the same constant:
    V sqrt(p rad / q) = (V p / q) sqrt(q rad / p)."""
    rl, cl = g.rb.labels, g.cb.labels
    big = lcm(*(cl[c][1] for c in set().union(*g.rows)))
    out = [{} for _ in cl]
    for i, row in enumerate(g.rows):
        if row:
            p = rl[i][1]
            for c, v in row.items():
                out[c][i] = v * p * (big // cl[c][1])
    return _graded(g.den * big, out, _dual(g.cb), _dual(g.rb), g.shift, g.rad)


def _unit_like(m):
    """The identity in the row basis of the square matrix m."""
    g = m._g
    if g is None:
        return PolyMatrix.identity(m.rows, m.row_weights)
    return PolyMatrix._wrap(m.rows, m.rows, _Graded(
        1, tuple({i: 1} for i in range(m.rows)), g.rb, g.rb, 0, 1),
        m.row_weights, m.row_weights)


def _bases(m):
    """(row basis, column basis) of a graded matrix, else (None, None)."""
    return (None, None) if m._g is None else (m._g.rb, m._g.cb)


def _rebased(m, rows, cols):
    """m in the bases (or raw labels) rows and cols when the monomials of
    its entries fit them, else m itself (also when m is not graded or
    either is None)."""
    g = m._g
    if g is None or rows is None or cols is None:
        return m
    rb, cb = _basis(rows), _basis(cols)
    if g.rb is rb and g.cb is cb or (g := _fit(*_monomials(m.entries), rb, cb)) is None:
        return m
    return PolyMatrix._wrap(m.rows, m.cols, g, m.row_weights, m.col_weights)


def _beside(mats, cb):
    """The graded matrices side by side, no weights, in their one row basis
    and the column basis cb if its block over each is that one's column
    basis (b, q) moved by the block's first label (d, r) to (b + d,
    sqfree(q r)) and the nonzero blocks' constants (s + d, sqfree(m r))
    agree, else None (also when cb is None).  An entry moves by sqrt(m / q)
    = e / g sqrt(sqfree(m r) / sqfree(q r)), e = gcd(m, r), g = gcd(q, r)."""
    gs = [m._g for m in mats]
    if cb is None or None in gs or any(g.rb is not gs[0].rb for g in gs) or sum(
            len(g.cb.labels) for g in gs) != len(cb.labels):
        return None
    labels, blocks, consts, start = cb.labels, [], set(), 0
    for g in gs:
        (d, r), cl = labels[start], g.cb.labels
        gq = [gcd(q, r) for _, q in cl]
        if labels[start:start + len(cl)] != tuple(
                (b + d, (q // f) * (r // f)) for (b, q), f in zip(cl, gq)):
            return None
        if any(g.rows):
            consts.add((g.shift + d, _sf(g.rad, r)))
            blocks.append((start, g, gcd(g.rad, r), gq))
        start += len(cl)
    if len(consts) > 1:
        return None
    den = lcm(1, *(g.den * lcm(*gq) for _, g, _, gq in blocks))
    rows = [{} for _ in gs[0].rb.labels]
    for start, g, e, gq in blocks:
        fac = [e * (den // (g.den * f)) for f in gq]
        for row, out in zip(g.rows, rows):
            out.update((start + c, v * fac[c]) for c, v in row.items())
    return PolyMatrix._wrap(len(rows), len(labels), _graded(
        den, rows, gs[0].rb, cb, *(consts.pop() if consts else (0, 1))), None, None)


def _entrywise(rows, cols, entry, row_weights=None, col_weights=None):
    """The fallback for operands the graded kernel cannot take (an entry of
    two or more terms, or graded bases or constants that differ): the
    matrix of the HPoly entry(i, c), computed as tests/matrix_oracle.py
    computes, and certified again by the public constructor."""
    return PolyMatrix([[entry(i, c) for c in range(cols)] for i in range(rows)],
                      row_weights, col_weights)


_ENTRIES: dict[tuple, HPoly] = {}


def _gentry(k, n, num, den):
    """The canonical HPoly of num/den * sqrt(n) * h**k, num nonzero: one
    object per value, interned by (k, n) and the reduced fraction the way
    _interned keeps bases, so its texts are formed once."""
    g = gcd(num, den)
    num, den = num // g, den // g
    p = _ENTRIES.get((k, n, num, den))
    if p is None:
        p = _ENTRIES[k, n, num, den] = HPoly._canonical((_RAD_ZERO,) * k + (
            RadScalar._canonical({n: Fraction(num, den)}),))
    return p


@lru_cache(maxsize=None)
def _unit(n):
    """The n x n identity without weights, certified once."""
    return PolyMatrix._cells(n, 1, [{i: (0, 1, 1)} for i in range(n)], None, None)


class _View(Frozen):
    """The HPoly entries of one storage and its texts, each written once:
    the entries given to a matrix that is not graded, else built on first
    read; matrices that share the storage share them.
    text is the str() of the matrix, json an (indent, text) pair: the JSON
    text of its entries that cli writes, with the indent it was formed at.
    The texts stay unset until formed (read them with a getattr default),
    so a view costs no more to make than its rows cell."""

    __slots__ = ("rows", "text", "json")

    def __init__(self, rows=None):
        object.__setattr__(self, "rows", rows)


class PolyMatrix(Frozen):
    """An immutable rows x cols matrix of polynomial entries.

    Memoized modules and tables hand out shared instances, so the slots are
    frozen once set.
    """

    __slots__ = ("rows", "cols", "row_weights", "col_weights", "_g", "_view")

    def __init__(self, rows_data, row_weights=None, col_weights=None):
        entries = tuple(_coerce_row(r) for r in rows_data)
        cols = len(entries[0]) if entries else 0
        if any(len(r) != cols for r in entries):
            raise ShapeError("ragged rows")
        graded = _certify(cols, _monomials(entries))
        self._set(len(entries), cols, graded, row_weights, col_weights,
                  _View(None if graded is not None else entries))

    def _set(self, rows, cols, graded, row_weights, col_weights, view):
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
        init(self, "_g", graded)
        init(self, "_view", view)

    @classmethod
    def _cells(cls, cols, den, cells, row_weights, col_weights):
        """The matrix of the monomial rows (den, cells), as _monomials reads
        them: graded when they certify, else holding the entries they give."""
        g = _certify(cols, (den, cells))
        if g is None:
            return cls([[_gentry(*row[c], den) if c in row else _ZERO
                         for c in range(cols)] for row in cells],
                       row_weights, col_weights)
        return cls._wrap(len(cells), cols, g, row_weights, col_weights)

    @classmethod
    def _labelled(cls, den, rows, rl, cl, shift=0, rad=1):
        """Graded storage of int rows over den with the raw labels rl, cl
        and the constant (shift, rad), as in _on; no certificate."""
        return cls._wrap(len(rl), len(cl), _on(den, rows, rl, cl, shift, rad),
                         None, None)

    @classmethod
    def _wrap(cls, rows, cols, graded, row_weights, col_weights):
        """Wrap graded storage."""
        self = object.__new__(cls)
        self._set(rows, cols, graded, row_weights, col_weights, _View())
        return self

    def __reduce__(self):
        return PolyMatrix, (self.entries, self.row_weights, self.col_weights)

    def _relabeled(self, row_weights, col_weights):
        """This matrix with other weights, sharing storage and view."""
        if row_weights == self.row_weights and col_weights == self.col_weights:
            return self
        other = object.__new__(PolyMatrix)
        other._set(self.rows, self.cols, self._g, row_weights, col_weights,
                   self._view)
        return other

    # -- constructors -----------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int, row_weights=None, col_weights=None):
        return cls._cells(cols, 1, [{}] * rows, row_weights, col_weights)

    @classmethod
    def identity(cls, n: int, weights=None):
        return _unit(n)._relabeled(weights, weights)

    @classmethod
    def diagonal(cls, values, weights=None):
        """diag(values)."""
        values = _coerce_row(values)
        n = len(values)
        read = _monomials((values,))
        if read is None:
            return cls([[v if i == k else _ZERO for k in range(n)]
                        for i, v in enumerate(values)], weights, weights)
        den, (row,) = read
        return cls._cells(n, den, [{i: row[i]} if i in row else {} for i in range(n)],
                          weights, weights)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def entries(self) -> tuple[tuple[HPoly, ...], ...]:
        """The entries as HPoly, graded ones built on first read, interned."""
        view = self._view.rows
        if view is None:
            g, rows = self._g, []
            for i, row in enumerate(g.rows):
                out = [_ZERO] * self.cols
                if row:
                    a, p = g.rb.labels[i]
                    s = gcd(p, g.rad)
                    x, a = (p // s) * (g.rad // s), a + g.shift
                    for c, v in row.items():
                        b, q = g.cb.labels[c]
                        y = gcd(x, q)
                        out[c] = _gentry(a - b, (x // y) * (q // y), v * s,
                                         g.den * (q // y))
                rows.append(tuple(out))
            view = tuple(rows)
            object.__setattr__(self._view, "rows", view)
        return view

    def entry(self, i: int, k: int) -> HPoly:
        """entries[i][k], indexed as a tuple (negative indices count from
        the end, others out of range raise IndexError).  A graded entry is
        read from the storage, as entries reads it, without building the
        view: the same interned object."""
        g = self._g
        if g is None:
            return self._view.rows[i][k]
        if not -self.cols <= k < self.cols:
            raise IndexError(f"column {k} out of range for {self.cols} columns")
        v = g.rows[i].get(k % self.cols)
        if v is None:
            return _ZERO
        (a, p), (b, q) = g.rb.labels[i], g.cb.labels[k]
        s = gcd(p, g.rad)  # as entries reads the row
        x = (p // s) * (g.rad // s)
        y = gcd(x, q)
        return _gentry(a + g.shift - b, (x // y) * (q // y), v * s,
                       g.den * (q // y))

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
        a, b = self._g, other._g
        if a is not None and b is not None:
            g = _gsum(a, b, sign)
            if g is not None:
                return PolyMatrix._wrap(self.rows, self.cols, g, rw, cw)
        x, y = self.entries, other.entries
        return _entrywise(self.rows, self.cols,
                          lambda i, c: x[i][c] + sign * y[i][c], rw, cw)

    def __add__(self, other):
        return self._entrywise_sum(other, 1)

    def __sub__(self, other):
        return self._entrywise_sum(other, -1)

    def __neg__(self):
        return self * -1

    def __mul__(self, scalar):
        """Every entry times the scalar, a monomial moving the constant."""
        if isinstance(scalar, (int, Fraction)):
            read = scalar.denominator, [{0: (0, 1, scalar.numerator)} if scalar else {}]
        else:
            scalar = as_hpoly(scalar)
            if scalar is NotImplemented:
                return NotImplemented
            read = _monomials(((scalar,),))
        if read is not None:
            den, (cell,) = read
            if not cell:
                return PolyMatrix.zeros(self.rows, self.cols, self.row_weights,
                                        self.col_weights)
            if self._g is not None:
                return PolyMatrix._wrap(self.rows, self.cols,
                                        _gscale(self._g, *cell[0], den),
                                        self.row_weights, self.col_weights)
        x = self.entries
        return _entrywise(self.rows, self.cols, lambda i, c: x[i][c] * scalar,
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
        a, b = self._g, other._g
        if a is not None and b is not None:
            g = _gmatmul(a, b)
            if g is not None:
                return PolyMatrix._wrap(self.rows, other.cols, g,
                                        self.row_weights, other.col_weights)
        x = [[(k, p) for k, p in enumerate(row) if p] for row in self.entries]
        y = other.entries
        return _entrywise(self.rows, other.cols, lambda i, c: sum(
            (p * y[k][c] for k, p in x[i] if y[k][c]), _ZERO),
            self.row_weights, other.col_weights)

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.shape != other.shape:
            return False
        a, b = self._g, other._g
        if a is not None and b is not None and a.rb is b.rb and a.cb is b.cb:
            if a.shift == b.shift and a.rad == b.rad:
                return a.den == b.den and a.rows == b.rows
            return not any(a.rows) and not any(b.rows)
        return self.entries == other.entries

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    # -- maps and slices ------------------------------------------------------

    def map_entries(self, fn) -> "PolyMatrix":
        return PolyMatrix([[fn(p) for p in row] for row in self.entries],
                          self.row_weights, self.col_weights)

    def transpose(self) -> "PolyMatrix":
        if self._g is not None:
            return PolyMatrix._wrap(self.cols, self.rows, _gtranspose(self._g),
                                    self.col_weights, self.row_weights)
        x = self.entries
        return _entrywise(self.cols, self.rows, lambda i, c: x[c][i],
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
        g = self._g
        if g is not None:
            return PolyMatrix._wrap(len(row_idx), len(col_idx), _on(
                g.den, [{new: row[c] for c, news in place.items() if c in row
                         for new in news} for row in map(g.rows.__getitem__, row_idx)],
                [g.rb.labels[i] for i in row_idx], [g.cb.labels[k] for k in col_idx],
                g.shift, g.rad), rw, cw)
        x = self.entries
        return _entrywise(len(row_idx), len(col_idx),
                          lambda i, c: x[row_idx[i]][col_idx[c]], rw, cw)

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
        """Exact division by h**k; raises if any entry is not divisible."""
        if k < 0:
            raise ValueError(f"negative h power: {k}")
        g = self._g
        if g is not None and all(a + g.shift - k >= max(g.cb.labels[c][0] for c in row)
                                 for row, (a, _) in zip(g.rows, g.rb.labels) if row):
            return PolyMatrix._wrap(self.rows, self.cols, _Graded(
                g.den, g.rows, g.rb, g.cb, g.shift - k, g.rad),
                self.row_weights, self.col_weights)
        x = self.entries
        return _entrywise(self.rows, self.cols, lambda i, c: x[i][c].divide_h(k),
                          self.row_weights, self.col_weights)

    def eval_h(self, value) -> "PolyMatrix":
        """Entrywise evaluation at rational h; the result has constant entries."""
        return self.map_entries(lambda p: HPoly.constant(p.eval_h(value)))

    # -- structure ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        g = self._g
        return not any(g.rows) if g is not None else not any(map(any, self._view.rows))

    def max_degree(self) -> int:
        return max(p.degree for row in self.entries for p in row)

    def first_nonzero(self):
        """(i, k, entry) of the first nonzero entry, or None."""
        return next(((i, k, p) for i, row in enumerate(self.entries)
                     for k, p in enumerate(row) if p), None)

    def __str__(self):
        """The entries in aligned columns, formed once and kept on the view."""
        text = getattr(self._view, "text", None)
        if text is None:
            cells = [[str(p) for p in row] for row in self.entries]
            widths = [max(len(cells[i][k]) for i in range(self.rows))
                      for k in range(self.cols)]
            text = "\n".join(["[ " + "  ".join(c.rjust(w) for c, w in zip(row, widths))
                              + " ]" for row in cells])
            object.__setattr__(self._view, "text", text)
        return text

    def __repr__(self):
        return f"PolyMatrix({self.rows}x{self.cols})"


def kron(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Kronecker product; the first factor owns the major index."""
    if a._g is not None and b._g is not None:
        return PolyMatrix._wrap(a.rows * b.rows, a.cols * b.cols,
                                _gkron(a._g, b._g), None, None)
    x, y, n, w = a.entries, b.entries, b.rows, b.cols
    return _entrywise(a.rows * n, a.cols * w,
                      lambda i, c: x[i // n][c // w] * y[i % n][c % w])


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
    power = _unit_like(a)
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
    return power_series(_unit_like(m) - m, lambda k: 1)
