"""Exact matrices over the polynomial scalars, stored as integers.

Matrices carry optional weight labels on rows and columns (the half-integer
m of each basis vector) so representation-theoretic indexing stays explicit.
All operations are exact; a zero residual matrix is literally zero.

Storage.  Almost every matrix the package builds has one monomial
q * sqrt(n) * h**k per entry, and k and n follow the basis: k = a_i - b_c
and n = sqfree(p_i * q_c) for an integer h-offset and a squarefree radical
on each row i and column c.  Graded storage keeps
exactly that: a dict ``{col: numerator}`` of ints per row over one
positive int denominator, the row labels (a_i, p_i) and the column labels
(b_c, q_c); the entry at (i, c) is numerator/den * sqrt(p_i / q_c) *
h**(a_i - b_c), and a row or column with no entry has no label.

The labels are a certificate, not an assumption.  ``_certify`` derives
them from the entries, breadth first over each connected component of the
nonzero pattern, and checks every entry against them.  The first row i of
a component starts from the gauge of the spin (rows-1)/2 ladder basis,
(-i, sqfree(i! (rows-1-i)!)), unless the construction offers row labels
of its own basis.  A matrix with an entry of two or more terms, or with
entries that no labels fit, keeps term storage: for each row, a tuple of
``(col, terms)`` pairs in column order, ``terms`` a sorted tuple of
``(h-power, radicand, numerator)`` triples with squarefree radicands over
one ``den``.  Only the certificate chooses between the two.  ``den`` and
``data`` read term storage, built on first read for a graded matrix, with
``den`` minimal: its gcd with every numerator is 1, and the zero matrix has
den 1.  Equal matrices therefore have equal ``den`` and ``data``, which is
what ``hash`` reads; ``==`` compares graded operands on their integers once
their labels are aligned, and term storage otherwise.

Arithmetic.  On graded operands ``@``, ``kron``, ``+``, ``-``, scalar
``*`` and ``/`` by one monomial, ``transpose``, ``submatrix``/``column``/
``row`` and ``divide_h`` do integer work only.  A product needs the left
column labels to equal the right row labels up to one h-shift, which moves
to the result's column labels; ``kron`` composes labels, offsets adding and
radicals multiplying; a sum needs equal labels wherever both operands have
them.  Labels are fixed only up to one (shift, radical) gauge per
component, so operands whose labels disagree by one gauge are moved onto
each other, and otherwise re-gauged component by component (``_align``).
The integer denominator is reduced once it outgrows a machine word.  When
no gauge fits, or an operand has term storage, the operation runs on term
storage: a product sums each output row in a dict keyed by column, where
an entry is one [h-power, radicand, numerator] term until a second
(h-power, radicand) reaches it and a small dict of terms from then on;
radicands multiply as in ``RadScalar.__mul__``; ``kron`` and a scalar
multiple form each entry as one product.  Its result goes through the
certificate like any other.  A sum with an all-zero operand returns the
other operand.

``HPoly`` is the boundary type.  The public constructor reads HPoly entries
(or anything ``as_hpoly`` accepts) once.  ``entries`` and ``entry()`` read
a tuple of tuples of canonical ``HPoly``, built on first read and then kept
on the instance; matrices that share storage share it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm

from .halfint import HalfInt
from .hpoly import HPoly, as_hpoly
from .radical import RadScalar, _legendre_exponent, _primes_up_to


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


# -- term storage ---------------------------------------------------------------

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


# -- graded storage -------------------------------------------------------------

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


class _Graded:
    """Integer rows {col: numerator} over den with row labels rl and column
    labels cl, (h-offset, squarefree radical) or None for an empty row or
    column; the term storage and the components are built on first use."""

    __slots__ = ("den", "rows", "rl", "cl", "terms", "comps")

    def __init__(self, den, rows, rl, cl):
        self.den, self.rows, self.rl, self.cl = den, rows, rl, cl
        self.terms = self.comps = None


def _graded(den, rows, rl, cl, prune=False):
    """Graded storage; den is reduced once it outgrows a machine word, and
    prune drops the labels of rows and columns that hold no entry."""
    if den >> 62:
        g = den
        for row in rows:
            if row:
                g = gcd(g, *row.values())
                if g == 1:
                    break
        if g != 1:
            den //= g
            rows = [{c: v // g for c, v in row.items()} for row in rows]
    if prune:  # every row and column with an entry has a label
        if len(rows) - rows.count({}) != len(rl) - rl.count(None):
            rl = tuple(lab if row else None for lab, row in zip(rl, rows))
        present = set().union(*rows)
        if len(present) != len(cl) - cl.count(None):
            cl = tuple(lab if c in present else None for c, lab in enumerate(cl))
    return _Graded(den, tuple(rows), tuple(rl), tuple(cl))


def _certify(nrows, ncols, den, data, start=None):
    """Graded storage of term storage, or None.  Labels are derived breadth
    first over the nonzero pattern and every entry is checked against
    them: each entry must be one term, with h-power a_i - b_c and radicand
    sqfree(p_i q_c).  The first row i of a component is labelled start[i],
    by default the spin (nrows-1)/2 gauge."""
    cells = []
    at_col = [[] for _ in range(ncols)]
    for i, row in enumerate(data):
        for c, terms in row:
            if len(terms) != 1:
                return None
            at_col[c].append(i)
        cells.append({c: terms[0] for c, terms in row})
    rl, cl = [None] * nrows, [None] * ncols
    start = start or _natural(nrows)
    for first, row in enumerate(cells):
        if not row or rl[first] is not None:
            continue
        rl[first] = start[first]
        todo = [first]
        while todo:
            i = todo.pop()
            a, p = rl[i]
            for c, (k, n, _) in cells[i].items():
                want = (a - k, _sf(p, n))
                if cl[c] is None:
                    cl[c] = want
                    b, q = want
                    for r in at_col[c]:
                        if rl[r] is None:
                            k2, n2, _ = cells[r][c]
                            rl[r] = (b + k2, _sf(q, n2))
                            todo.append(r)
                elif cl[c] != want:
                    return None
    # v sqrt(n) = V sqrt(p / q) with V = v q / gcd(p, q)
    rows = []
    for row, lab in zip(cells, rl):
        if row:
            p = lab[1]
            rows.append({c: v * (cl[c][1] // gcd(p, cl[c][1]))
                         for c, (_, _, v) in row.items()})
        else:
            rows.append({})
    return _graded(den, rows, rl, cl)


def _graded_terms(g):
    """(den, data): the term storage of graded storage, minimal."""
    if g.terms is None:
        cl, big = g.cl, 1
        rows = []
        for row, lab in zip(g.rows, g.rl):
            out = []
            if row:
                a, p = lab
                for c in sorted(row):
                    b, q = cl[c]
                    s = gcd(p, q)
                    t = q // s  # V sqrt(p / q) = V / t * sqrt(sqfree(p q))
                    if t != 1:
                        big = lcm(big, t)
                    out.append((c, a - b, (p // s) * t, row[c], t))
            rows.append(out)
        data = tuple(tuple((c, ((k, n, v * (big // t)),)) for c, k, n, v, t in row)
                     for row in rows)
        g.terms = _minimal(g.den * big, data)
    return g.terms


def _components(g):
    """The component (a root index) of each row and each column of the
    nonzero pattern, None for an empty one; built once per storage."""
    if g.comps is None:
        nrows = len(g.rows)
        parent = list(range(nrows + len(g.cl)))

        def find(x):
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            return x

        for i, row in enumerate(g.rows):
            top = find(i)
            for c in row:
                root = find(nrows + c)
                if root != top:
                    parent[root] = top
        g.comps = (tuple(find(i) if row else None for i, row in enumerate(g.rows)),
                   tuple(find(nrows + c) if lab is not None else None
                         for c, lab in enumerate(g.cl)))
    return g.comps


def _align(pairs):
    """Per-component gauges (shift, radical) that make each pair of labels
    equal, or None when none exist.  pairs holds (u, v, left, right): a
    component u of the left operand, v of the right one, and their labels
    of one shared index; the left components keep their gauge where they
    can.  Returns ({u: gauge}, {v: gauge}) without the trivial gauges."""
    adj = {}
    for u, v, (a, p), (b, q) in pairs:
        d, r = b - a, _sf(p, q)
        adj.setdefault(u, []).append((~v, -d, r))
        adj.setdefault(~v, []).append((u, d, r))
    pot = {}
    for start in sorted(adj, reverse=True):  # left components first
        if start in pot:
            continue
        pot[start] = (0, 1)
        todo = [start]
        while todo:
            x = todo.pop()
            s, r = pot[x]
            for y, d, ry in adj[x]:
                want = (s + d, _sf(r, ry))
                have = pot.get(y)
                if have is None:
                    pot[y] = want
                    todo.append(y)
                elif have != want:
                    return None
    left, right = {}, {}
    for x, gauge in pot.items():
        if gauge != (0, 1):
            if x >= 0:
                left[x] = gauge
            else:
                right[~x] = gauge
    return left, right


def _moved(g, rgauge, cgauge):
    """The same matrix with the label of row i moved by the gauge
    (shift, radical) rgauge[i] and that of column c by cgauge[c], None
    for no move; an entry's row and column move together, and its
    numerator changes by gcd(p, r) / gcd(q, r)."""
    cl, colf, big = list(g.cl), [1] * len(g.cl), 1
    for c, gauge in enumerate(cgauge):
        if gauge is not None and cl[c] is not None:
            (d, r), (b, q) = gauge, cl[c]
            cl[c] = (b + d, _sf(q, r))
            if r != 1:
                colf[c] = f = gcd(q, r)
                big = lcm(big, f)
    rl, rows = list(g.rl), []
    for i, (row, gauge) in enumerate(zip(g.rows, rgauge)):
        f = 1
        if gauge is not None and row:
            (d, r), (a, p) = gauge, rl[i]
            rl[i] = (a + d, _sf(p, r))
            f = gcd(p, r)
        if f == 1 and big == 1:
            rows.append(row)
        else:
            rows.append({c: v * f * (big // colf[c]) for c, v in row.items()})
    return _graded(g.den * big, rows, rl, cl)


def _moved_by(g, gauges):
    """g with each component moved by its gauge in gauges."""
    if not gauges:
        return g
    rcomp, ccomp = _components(g)
    return _moved(g, [gauges.get(u) for u in rcomp],
                  [gauges.get(u) for u in ccomp])


def _moved_all(g, gauge):
    """g with every label moved by one gauge."""
    if gauge == (0, 1):
        return g
    return _moved(g, [gauge] * len(g.rl), [gauge] * len(g.cl))


def _common_gauge(left, right):
    """The gauge (d, r) that moves left onto right wherever both labels
    exist: offsets differ by d, radicals by the class r.  None when no
    index has both labels, False when no single gauge does it."""
    if left == right:
        return (0, 1)
    gauge = None
    for x, y in zip(left, right):
        if x is None or y is None:
            continue
        d = (0, 1) if x == y else (y[0] - x[0], _sf(x[1], y[1]))
        if gauge is None:
            gauge = d
        elif d != gauge:
            return False
    return gauge


def _pairs(lcomp, left, rcomp, right):
    return [(u, v, x, y) for u, x, v, y in zip(lcomp, left, rcomp, right)
            if x is not None and y is not None]


def _gmatmul(a, b):
    """a @ b on graded storage, or None when no gauge aligns the inner
    index."""
    gauge = _common_gauge(a.cl, b.rl)
    shift = 0
    if gauge is False:
        gauges = _align(_pairs(_components(a)[1], a.cl, _components(b)[0], b.rl))
        if gauges is None:
            return None
        a, b = _moved_by(a, gauges[0]), _moved_by(b, gauges[1])
    elif gauge is not None:
        shift, r = gauge
        if r != 1:
            b, shift = _moved_all(b, (-shift, r)), 0
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
    cl = b.cl if not shift else tuple(
        None if lab is None else (lab[0] - shift, lab[1]) for lab in b.cl)
    return _graded(a.den * b.den, out, a.rl, cl, prune=True)


def _aligned(a, b):
    """(a, b) re-gauged so that their labels agree wherever both exist, or
    None when no gauge does it (then the matrices differ in some entry's
    h-power or radicand class)."""
    rows, cols = _common_gauge(a.rl, b.rl), _common_gauge(a.cl, b.cl)
    if rows is False or cols is False or (rows and cols and rows != cols):
        (ra, ca), (rb, cb) = _components(a), _components(b)
        gauges = _align(_pairs(ra, a.rl, rb, b.rl) + _pairs(ca, a.cl, cb, b.cl))
        if gauges is None:
            return None
        return _moved_by(a, gauges[0]), _moved_by(b, gauges[1])
    d, r = rows or cols or (0, 1)
    return a, _moved_all(b, (-d, r))


def _gsum(a, b, sign):
    """a + sign * b on graded storage, or None when no gauge aligns them."""
    pair = _aligned(a, b)
    if pair is None:
        return None
    a, b = pair
    den = lcm(a.den, b.den)
    fa, fb = den // a.den, sign * (den // b.den)
    out = []
    for x, y in zip(a.rows, b.rows):
        if not y:
            out.append(x if fa == 1 else {c: v * fa for c, v in x.items()})
        elif not x:
            out.append({c: v * fb for c, v in y.items()})
        else:
            acc = x.copy() if fa == 1 else {c: v * fa for c, v in x.items()}
            get = acc.get
            for c, v in y.items():
                acc[c] = get(c, 0) + v * fb
            if 0 in acc.values():
                acc = {c: v for c, v in acc.items() if v}
            out.append(acc)
    rl = tuple(y if x is None else x for x, y in zip(a.rl, b.rl))
    cl = tuple(y if x is None else x for x, y in zip(a.cl, b.cl))
    return _graded(den, out, rl, cl, prune=True)


@lru_cache(maxsize=64)
def _kron_labels(left, right):
    """The labels of a Kronecker index space, offsets adding and radicals
    multiplying, and the factor gcd(p1, p2) of each:
    sqrt(p1) sqrt(p2) = gcd(p1, p2) sqrt(sqfree(p1 p2))."""
    labels, factors = [], []
    for x in left:
        for y in right:
            if x is None or y is None:
                labels.append(None)
                factors.append(1)
            else:
                f = gcd(x[1], y[1])
                labels.append((x[0] + y[0], (x[1] // f) * (y[1] // f)))
                factors.append(f)
    return tuple(labels), tuple(factors)


def _gkron(a, b):
    """kron(a, b) on graded storage: labels compose (_kron_labels)."""
    rl, rowf = _kron_labels(a.rl, b.rl)
    cl, colf = _kron_labels(a.cl, b.cl)
    big = lcm(*colf)
    colf = [big // f for f in colf]
    w = len(b.cl)
    out = []
    i = 0
    for x in a.rows:
        for y in b.rows:
            f = rowf[i]
            i += 1
            row = {}
            for k, u in x.items():
                base, u = k * w, u * f
                if big == 1:
                    for c, v in y.items():
                        row[base + c] = u * v
                else:
                    for c, v in y.items():
                        row[base + c] = u * v * colf[base + c]
            out.append(row)
    return _graded(a.den * b.den * big, out, rl, cl)


def _gscale(g, k, n, num, den):
    """g times num/den * sqrt(n) * h**k: row labels move by (k, n)."""
    rl, out = [], []
    for row, lab in zip(g.rows, g.rl):
        if lab is None:
            rl.append(None)
            out.append(row)
            continue
        a, p = lab
        f = gcd(p, n)
        rl.append((a + k, (p // f) * (n // f)))
        f *= num
        out.append(row if f == 1 else {c: v * f for c, v in row.items()})
    return _graded(g.den * den, out, rl, g.cl)


def _gtranspose(g):
    """The transpose: labels swap sides with negated offsets, and
    V sqrt(p / q) = (V p / q) sqrt(q / p).  Each component is then
    shifted so that its first row i has offset -i, as the certificate
    would start it; radicals are kept."""
    big = lcm(*(lab[1] for lab in g.cl if lab is not None))
    out = [{} for _ in g.cl]
    for i, (row, lab) in enumerate(zip(g.rows, g.rl)):
        if row:
            p = lab[1]
            for c, v in row.items():
                out[c][i] = v * p * (big // g.cl[c][1])
    flip = tuple(None if lab is None else (-lab[0], lab[1]) for lab in g.rl)
    t = _graded(g.den * big, out,
                tuple(None if lab is None else (-lab[0], lab[1]) for lab in g.cl),
                flip)
    gauges = {}
    for i, (u, lab) in enumerate(zip(_components(t)[0], t.rl)):
        if u is not None and u not in gauges:
            gauges[u] = (-i - lab[0], 1)
    return _moved_by(t, {u: x for u, x in gauges.items() if x != (0, 1)})


def _unit_like(m):
    """The identity in the gauge of the square matrix m: each index labelled
    as a row of m, else as a column of m, else as the certificate would."""
    g = m._g
    if g is None:
        return PolyMatrix.identity(m.rows, m.row_weights)
    labels = tuple(x or y or z for x, y, z in zip(g.rl, g.cl, _natural(m.rows)))
    return PolyMatrix._wrap(m.rows, m.rows, _Graded(
        1, tuple({i: 1} for i in range(m.rows)), labels, labels),
        m.row_weights, m.row_weights)


def _same(a, b):
    """Whether graded storages whose labels agree hold equal matrices."""
    if a.den == b.den:
        return a.rows == b.rows
    da, db = a.den, b.den
    return all(x.keys() == y.keys() and all(v * db == y[c] * da
                                            for c, v in x.items())
               for x, y in zip(a.rows, b.rows))


def _gentry(h, p, q, v, den):
    """The canonical HPoly of v/den * sqrt(p / q) * h**h."""
    s = gcd(p, q)
    rad = RadScalar._canonical({(p // s) * (q // s): Fraction(v * s, den * q)})
    return HPoly._canonical((_RAD_ZERO,) * h + (rad,))


@lru_cache(maxsize=None)
def _unit_storage(n):
    """(graded or None, term storage) of the n x n identity, certified once
    per size."""
    one = ((0, 1, 1),)
    data = tuple(((i, one),) for i in range(n))
    return _certify(n, n, 1, data), (1, data)


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

    __slots__ = ("rows", "cols", "row_weights", "col_weights", "_g", "_t",
                 "_view")

    def __init__(self, rows_data, row_weights=None, col_weights=None):
        entries = tuple(_coerce_row(r) for r in rows_data)
        cols = len(entries[0]) if entries else 0
        if any(len(r) != cols for r in entries):
            raise ShapeError("ragged rows")
        den, data = _flatten(entries)
        self._set(len(entries), cols, _certify(len(entries), cols, den, data),
                  (den, data), row_weights, col_weights)

    def _set(self, rows, cols, graded, terms, row_weights, col_weights,
             view=None):
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
        init(self, "_t", None if graded is not None else terms)
        init(self, "_view", view if view is not None else _View())

    @classmethod
    def _of(cls, rows, cols, den, data, row_weights, col_weights, view=None,
            start=None):
        """Wrap term storage that is already minimal (kernel results),
        graded when it certifies (from the row labels start, if given)."""
        self = object.__new__(cls)
        self._set(rows, cols, _certify(rows, cols, den, data, start),
                  (den, data), row_weights, col_weights, view)
        return self

    @classmethod
    def _wrap(cls, rows, cols, graded, row_weights, col_weights):
        """Wrap graded storage."""
        self = object.__new__(cls)
        self._set(rows, cols, graded, None, row_weights, col_weights)
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
        other = object.__new__(PolyMatrix)
        other._set(self.rows, self.cols, self._g, self._t, row_weights,
                   col_weights, self._view)
        return other

    @property
    def den(self) -> int:
        """The common denominator of the term storage."""
        return (self._t or _graded_terms(self._g))[0]

    @property
    def data(self) -> tuple:
        """The term storage: per row, (col, terms) pairs in column order."""
        return (self._t or _graded_terms(self._g))[1]

    # -- constructors -----------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int, row_weights=None, col_weights=None):
        return cls._of(rows, cols, 1, ((),) * rows, row_weights, col_weights)

    @classmethod
    def identity(cls, n: int, weights=None):
        self = object.__new__(cls)
        self._set(n, n, *_unit_storage(n), weights, weights)
        return self

    @classmethod
    def _monomials(cls, rows, cols, den, entries, start=None):
        """The matrix with entry (i, k) = v/den * h**p for each
        ((i, k), (p, v)) of the dict entries, v an int; rational entries
        built straight into minimal storage, no HPoly per entry.  start
        offers the certificate row labels, as in _certify."""
        data = [[] for _ in range(rows)]
        for (i, k), (p, v) in sorted(entries.items()):
            if v:
                data[i].append((k, ((p, 1, v),)))
        return cls._of(rows, cols, *_minimal(den, tuple(map(tuple, data))),
                       None, None, start=start)

    @classmethod
    def diagonal(cls, values, weights=None, start=None):
        """diag(values); start offers row labels, as in _certify."""
        n = len(values)
        den, (row,) = _flatten([_coerce_row(values)])
        data = [()] * n
        for i, terms in row:
            data[i] = ((i, terms),)
        return cls._of(n, n, den, tuple(data), weights, weights, start=start)

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
            cols, g = self.cols, self._g
            rows = []
            if g is None:
                den, data = self._t
                for row in data:
                    out = [_ZERO] * cols
                    for c, terms in row:
                        out[c] = _hpoly(terms, den)
                    rows.append(tuple(out))
            else:
                for row, lab in zip(g.rows, g.rl):
                    out = [_ZERO] * cols
                    if row:
                        a, p = lab
                        for c, v in row.items():
                            b, q = g.cl[c]
                            out[c] = _gentry(a - b, p, q, v, g.den)
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
        if self._g is not None and other._g is not None:
            g = _gsum(self._g, other._g, sign)
            if g is not None:
                return PolyMatrix._wrap(self.rows, self.cols, g, rw, cw)
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
        g = self._g
        if g is not None:
            return PolyMatrix._wrap(self.rows, self.cols, _Graded(
                g.den, tuple({c: -v for c, v in row.items()} for row in g.rows),
                g.rl, g.cl), self.row_weights, self.col_weights)
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
        if self._g is not None and len(st) == 1:
            return PolyMatrix._wrap(self.rows, self.cols,
                                    _gscale(self._g, *st[0], den),
                                    self.row_weights, self.col_weights)
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
        if self._g is not None and other._g is not None:
            g = _gmatmul(self._g, other._g)
            if g is not None:
                return PolyMatrix._wrap(self.rows, other.cols, g,
                                        self.row_weights, other.col_weights)
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
        if self.shape != other.shape:
            return False
        a, b = self._g, other._g
        if a is not None and b is not None:
            pair = _aligned(a, b)
            return pair is not None and _same(*pair)
        return self.den == other.den and self.data == other.data

    def __hash__(self):
        return hash((self.rows, self.cols, self.den, self.data))

    # -- maps and slices ------------------------------------------------------

    def map_entries(self, fn) -> "PolyMatrix":
        return PolyMatrix([[fn(p) for p in row] for row in self.entries],
                          self.row_weights, self.col_weights)

    def transpose(self) -> "PolyMatrix":
        if self._g is not None:
            return PolyMatrix._wrap(self.cols, self.rows, _gtranspose(self._g),
                                    self.col_weights, self.row_weights)
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
        g = self._g
        if g is not None:
            out = [{new: v for c, v in g.rows[i].items() if c in place
                    for new in place[c]} for i in row_idx]
            return PolyMatrix._wrap(len(row_idx), len(col_idx), _graded(
                g.den, out, [g.rl[i] for i in row_idx],
                [g.cl[k % cols] for k in col_idx], prune=True), rw, cw)
        out = []
        for i in row_idx:
            orow = [(new, terms) for c, terms in self.data[i]
                    if c in place for new in place[c]]
            orow.sort()  # new positions are distinct: terms never compared
            out.append(tuple(orow))
        return PolyMatrix._of(len(row_idx), len(col_idx),
                              *_minimal(self.den, tuple(out)), rw, cw)

    def column(self, k: int) -> "PolyMatrix":
        cols, g = self.cols, self._g
        if g is None or not -cols <= k < cols:
            return self.submatrix(range(self.rows), [k])
        k %= cols
        out = [{0: row[k]} if k in row else {} for row in g.rows]
        return PolyMatrix._wrap(self.rows, 1, _graded(
            g.den, out, [lab if row else None for lab, row in zip(g.rl, out)],
            (g.cl[k],)), self.row_weights, self.col_weights and (self.col_weights[k],))

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
        if g is not None and all(lab[0] - k >= max(g.cl[c][0] for c in row)
                                 for row, lab in zip(g.rows, g.rl) if row):
            return PolyMatrix._wrap(self.rows, self.cols, _Graded(
                g.den, g.rows,
                tuple(None if lab is None else (lab[0] - k, lab[1]) for lab in g.rl),
                g.cl), self.row_weights, self.col_weights)
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
        return not any(self._g.rows if self._g is not None else self._t[1])

    def max_degree(self) -> int:
        g = self._g
        if g is not None:
            return max((lab[0] - min(g.cl[c][0] for c in row)
                        for row, lab in zip(g.rows, g.rl) if row), default=-1)
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
    if a._g is not None and b._g is not None:
        return PolyMatrix._wrap(a.rows * b.rows, a.cols * b.cols,
                                _gkron(a._g, b._g), None, None)
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
