"""Graded storage end to end: the constructions decide, and the entries are
the oracle.

``PolyMatrix`` keeps a matrix in graded storage only when the code that
builds it knows its labels (``_labelled``, ``_beside``, ``zeros``,
``identity`` and the graded kernel on graded operands, all through
``PolyMatrix._wrap``); the public constructor keeps the entries it is
given.  Whole runs of ``jordanian verify`` pin that down, each in a fresh
interpreter so that no memoized module or table carries storage over from
another test:

* with ``_wrap`` made to hand its matrix's entries to the public
  constructor, every matrix keeps only its entries, every operation goes
  through the entrywise fallback, and the JSON output must not change
  (timings aside);
* as built, every matrix of the four suites is graded, the fallback is
  never called, every graded matrix has interned row and column bases and
  its entries have exactly its storage in them (matrix_oracle.fit, the
  reference), and at most 9 comparisons meet graded operands in different
  bases.

The residual checks that compare two products slice by slice must report a
failure exactly as the slice of their difference would.
"""

import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from math import factorial, gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import jordanian
import jordanian.polymatrix as pm
from conftest import examples
from jordanian import coupling
from jordanian.coupling import (AlphaTable, alpha_table, coupled_ket,
                                coupled_ladder, decompose, product_labels,
                                slot_sums, verify_alpha_orthogonality,
                                verify_intermediate_action,
                                verify_intermediate_orthonormality)
from jordanian.halfint import half
from jordanian.hpoly import HPoly
from jordanian.irreps import Generator, irrep
from jordanian.polymatrix import PolyMatrix
from jordanian.radical import RadScalar, squarefree_decompose
from jordanian.report import Check, scalar_check, zero_check
from jordanian.tensorops import fermion_realization

SRC = str(Path(jordanian.__file__).resolve().parent.parent)
TESTS = str(Path(__file__).resolve().parent)

VERIFY = 'cli.main(["verify", "--max-j", "2", "--format", "json", "--out", sys.argv[1]])'

# Counts the storage of every matrix the run builds; for each matrix that
# keeps only its entries, the innermost frame outside polymatrix.py that
# built it.
CENSUS = """
import json, sys, traceback
import jordanian.polymatrix as pm
from jordanian import cli
counts, origins = {"graded": 0, "entries": 0}, set()
wrapped = pm.PolyMatrix._set
def counting_set(self, rows, cols, graded, *rest):
    if graded is None:
        counts["entries"] += 1
        frame = next(f for f in reversed(traceback.extract_stack()[:-1])
                     if not f.filename.endswith("polymatrix.py"))
        origins.add((frame.name, frame.line))
    else:
        counts["graded"] += 1
    return wrapped(self, rows, cols, graded, *rest)
pm.PolyMatrix._set = counting_set
""" + VERIFY + """
print(json.dumps({"counts": counts, "origins": sorted(origins)}))
"""

# Every graded storage is wrapped by PolyMatrix._wrap, which here hands the
# entries of the matrix it would build to the public constructor instead,
# which keeps only the entries; the graded matrix they are read from is the
# one graded storage allowed.
REFUSE = """
import sys
import jordanian.polymatrix as pm
from jordanian import cli
wrap, reading = pm.PolyMatrix._wrap, [False]
def refused_wrap(cls, rows, cols, graded, row_weights, col_weights):
    reading[0] = True
    entries = wrap(rows, cols, graded, None, None).entries
    reading[0] = False
    return cls(entries, row_weights, col_weights)
pm.PolyMatrix._wrap = classmethod(refused_wrap)
wrapped = pm.PolyMatrix._set
def entries_only_set(self, rows, cols, graded, *rest):
    assert graded is None or reading[0], "graded storage from _wrap"
    return wrapped(self, rows, cols, graded, *rest)
pm.PolyMatrix._set = entries_only_set
""" + VERIFY


def _run(script, out):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, TESTS)))
    proc = subprocess.run([sys.executable, "-c", script, str(out)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _without_timings(value):
    if isinstance(value, dict):
        return {k: _without_timings(v) for k, v in value.items()
                if k != "elapsed_s"}
    if isinstance(value, list):
        return [_without_timings(v) for v in value]
    return value


def test_refusing_the_certificate_changes_no_output(tmp_path):
    # Graded storage refused everywhere: the entries alone give the same
    # output.
    graded, entries = tmp_path / "graded.json", tmp_path / "entries.json"
    census = json.loads(_run(CENSUS, graded))
    _run(REFUSE, entries)
    assert census["counts"]["graded"] > 0
    want = json.loads(graded.read_text(encoding="utf-8"))
    have = json.loads(entries.read_text(encoding="utf-8"))
    assert _without_timings(have) == _without_timings(want)


def test_no_verify_matrix_keeps_term_storage(tmp_path):
    # The second-slot NOTE of verify_intermediate_action is decided by a
    # classical comparison, so every matrix of every suite is graded.
    census = json.loads(_run(CENSUS, tmp_path / "out.json"))
    assert census["counts"]["graded"] > 1000
    assert census["counts"]["entries"] == 0 and census["origins"] == []


# Every call of the entrywise fallback, with the innermost frame outside
# polymatrix.py that reached it; every graded storage checked against its
# bases: interned, first label (0, 1), and its entries put into them by the
# reference (matrix_oracle.fit) give its own storage, field by field; every
# == between graded operands in different bases, which compares entries.
BASES_CENSUS = """
import json, sys, traceback
import jordanian.polymatrix as pm
from jordanian import cli
from matrix_oracle import fit
fallback, misfits, graded, across = [], [], [0], [0]

entrywise = pm._entrywise
def counted(*args):
    frame = next(f for f in reversed(traceback.extract_stack()[:-1])
                 if not f.filename.endswith("polymatrix.py"))
    fallback.append((frame.name, frame.line))
    return entrywise(*args)
pm._entrywise = counted

equal = pm.PolyMatrix.__eq__
def counted_eq(self, other):
    a, b = self._g, getattr(other, "_g", None)
    if a is not None and b is not None and (a.rb, a.cb) != (b.rb, b.cb):
        across[0] += 1
    return equal(self, other)
pm.PolyMatrix.__eq__ = counted_eq

wrapped, fitting = pm.PolyMatrix._set, [False]
def checking_set(self, rows, cols, g, *rest):
    wrapped(self, rows, cols, g, *rest)
    if g is not None and not fitting[0]:
        graded[0] += 1
        read = object.__new__(pm.PolyMatrix)  # its entries, not on self's view
        wrapped(read, rows, cols, g, None, None, pm._View())
        fitting[0] = True
        ref = fit(read, g.rb, g.cb)
        fitting[0] = False
        fields = lambda f: (f.den, f.rows) + ((f.shift, f.rad) if any(f.rows) else ())
        if not all(pm._BASES[b.labels] is b and b.labels[:1] in ((), ((0, 1),))
                   for b in (g.rb, g.cb)) or ref is None or fields(ref._g) != fields(g):
            misfits.append(repr((rows, cols)))
pm.PolyMatrix._set = checking_set
""" + VERIFY + """
print(json.dumps({"fallback": fallback, "misfits": misfits,
                  "graded": graded[0], "across": across[0]}))
"""


@pytest.fixture(scope="module")
def bases_census(tmp_path_factory):
    out = tmp_path_factory.mktemp("census") / "out.json"
    return json.loads(_run(BASES_CENSUS, out))


def test_verify_never_takes_the_fallback(bases_census):
    assert bases_census["fallback"] == []
    assert bases_census["graded"] > 1000 and bases_census["misfits"] == []


def test_verify_compares_across_bases_at_most_nine_times(bases_census):
    # Equal matrices in the same bases have the same minimal storage, so
    # almost every == is plain equality; the few in different bases compare
    # entries, and none of them reaches the fallback.
    assert bases_census["across"] <= 9
    assert bases_census["fallback"] == []


def test_zm_shares_the_bases_of_zp():
    for twice in range(8):
        rep = irrep(half(twice, 2))
        assert rep.zm._g is not None
        assert (rep.zm._g.rb, rep.zm._g.cb) == (rep.zp._g.rb, rep.zp._g.cb)
        assert rep.zm == rep.zp.transpose()


# -- residual checks that compare slices ----------------------------------------

J1, J2 = half(1), half(1, 2)

# The failing checks of verify_intermediate_action(1, 1/2) with entry (1, 4)
# of K raised by 1, as the formulation that subtracts whole products first
# reported them.
PERTURBED_FAILURES = [
    ("Zm ket (0,1/2)",
     "residual degree 0; 1 of 6 entries nonzero; first (1,0) = -(1)*sqrt(2)"),
    ("H ket (-1,1/2)",
     "residual degree 1; 2 of 6 entries nonzero; first (0,0) = (2)*h"),
    ("Zp ket (-1,1/2)",
     "residual degree 0; 1 of 6 entries nonzero; first (0,0) = (1)"),
    ("Zm ket (-1,1/2)",
     "residual degree 2; 3 of 6 entries nonzero; first (0,0) = (1/2)*h^2"),
    ("Zp ket (-1,-1/2)",
     "residual degree 0; 1 of 6 entries nonzero; first (1,0) = -(1)"),
]


def _perturbed_table():
    table = alpha_table(J1, J2)
    n = table.ket.rows
    bump = PolyMatrix([[1 if (i, c) == (1, 4) else 0 for c in range(n)]
                       for i in range(n)])
    return AlphaTable(J1, J2, table.ket + bump, table.bra, table.cgc)


def test_perturbed_ket_fails_as_the_difference_would(monkeypatch):
    bad = _perturbed_table()
    real = coupling.alpha_table
    monkeypatch.setattr(coupling, "alpha_table",
                        lambda a, b: bad if (a, b) == (J1, J2) else real(a, b))
    report = verify_intermediate_action(J1, J2)
    failures = [(c.name, c.detail) for c in report.checks if c.status == "fail"]
    assert failures == PERTURBED_FAILURES
    # The same details from slices of the full differences.
    k, b = bad.ket, bad.bra
    zp, zm, dh = coupled_ladder(J1, J2)
    sp, sm, sh = slot_sums(J1, J2)
    expected = []
    for c, (m1, m2) in enumerate(product_labels(J1, J2)):
        for tag, z, s in (("H", dh, sh), ("Zp", zp, sp), ("Zm", zm, sm)):
            for check in (zero_check(f"{tag} ket ({m1},{m2})",
                                     (z @ k - k @ s).column(c)),
                          zero_check(f"{tag} bra ({m1},{m2})",
                                     (b @ z - s @ b).row(c))):
                if check.status == "fail":
                    expected.append((check.name, check.detail))
    assert failures == expected
    coupling._certified_decomposition.built.clear()
    try:
        decompose(J1, J2)
    except ArithmeticError as exc:
        assert str(exc) == "coupled Casimir eigenvalue mismatch at j=3/2, m=-1/2"
    else:
        raise AssertionError("a perturbed K passed the Casimir certificate")
    finally:
        coupling._certified_decomposition.built.clear()


def test_perturbed_bra_ket_fails_cell_by_cell(monkeypatch):
    # B K with one entry raised: both B K = 1 verifiers give up their block
    # and report every entry as its own scalar check, named and detailed
    # as the per-entry formulation names and details it.
    kept = alpha_table(J1, J2)
    table = AlphaTable(J1, J2, kept.ket, kept.bra, kept.cgc)
    bk = table._bra_ket
    n = bk.rows
    bump = PolyMatrix([[HPoly.h(1, 2) if (i, c) == (2, 3) else 0
                        for c in range(n)] for i in range(n)])
    vars(table)["_bra_ket"] = bk + bump
    real = coupling.alpha_table
    monkeypatch.setattr(coupling, "alpha_table",
                        lambda a, b: table if (a, b) == (J1, J2) else real(a, b))
    labels = [(str(k1), str(k2), str(-k1), str(-k2))
              for k1, k2 in product_labels(J1, J2)]
    one = PolyMatrix.identity(n)
    for verify, name, by_bra in (
            (verify_alpha_orthogonality, lambda m, n: f"sum_k alpha[k;({m[0]},"
             f"{m[1]})] alpha[-k;({n[2]},{n[3]})]", False),
            (verify_intermediate_orthonormality,
             lambda m, n: f"<({n[0]},{n[1]})|({m[0]},{m[1]})>", True)):
        report = verify(J1, J2)
        assert all(type(item) is Check for item in report.items)
        assert report.items == [
            scalar_check(name(m, nn), table._bra_ket.entry(r, c),
                         one.entry(r, c))
            for (r, nn), (c, m) in (
                (o, i) if by_bra else (i, o)
                for o in enumerate(labels) for i in enumerate(labels))]
        assert [c.detail for c in report.failures()] == [
            f"{table._bra_ket.entry(2, 3)} != 0"]
        assert report.counts() == {"pass": n * n - 1, "fail": 1, "skip": 0}


# -- gauges built in the labels of their cores ---------------------------------

def test_fresh_tables_need_no_regauging(monkeypatch):
    # G, G^-1, D and D_c are built in the labels of the rational cores
    # R and Q they multiply, so building K and C meets matching bases in
    # every product and never takes the entrywise fallback.
    calls = []
    fallback = pm._entrywise

    def counting(*args):
        calls.append(args[:2])
        return fallback(*args)

    monkeypatch.setattr(pm, "_entrywise", counting)
    pairs = [(half(t1, 2), half(t2, 2)) for t1 in range(1, 6)
             for t2 in range(1, 6)]
    fresh = [(coupling.alpha_table.__wrapped__(j1, j2),
              coupling.cgc_matrix.__wrapped__(j1, j2)) for j1, j2 in pairs]
    assert calls == []
    for (j1, j2), (table, c) in zip(pairs, fresh):
        assert table.ket == alpha_table(j1, j2).ket
        assert c == table.cgc == alpha_table(j1, j2).cgc


# -- interned entries ------------------------------------------------------------
#
# Each monomial value read from graded storage is one shared HPoly per
# process, so its str() and JSON texts are formed once.

def _interned_ids():
    return {id(p) for p in pm._ENTRIES.values()}


def test_rereading_a_ket_returns_the_same_entries():
    j1, j2, j, m = half(2, 2), half(1, 2), half(1, 2), half(1, 2)
    first, second = (coupled_ket(j1, j2, j, m).entries for _ in range(2))
    assert first is not second
    assert all(p is q for row, again in zip(first, second)
               for p, q in zip(row, again))


def test_a_slice_reads_the_entries_of_its_matrix():
    zp = irrep(1).zp
    i, k, p = zp.first_nonzero()
    assert zp.submatrix([i], [k]).scalar() is p


def test_one_value_over_different_denominators_is_one_object():
    # den is minimal over the whole matrix: the 1 of the first matrix is
    # stored as 2/2, the 1 of the second as 1/1.
    halves = PolyMatrix._labelled(2, [{0: 2, 1: 1}], [(0, 1)], [(0, 1), (0, 1)])
    ones = PolyMatrix.identity(1)
    assert halves._g.den == 2 and ones._g.den == 1
    assert halves.entry(0, 0) is ones.entry(0, 0)


@examples(50)
@given(st.integers(0, 4), st.sampled_from([1, 2, 3, 6, 30]),
       st.integers(-10**9, 10**9).filter(bool), st.integers(1, 10**9),
       st.integers(1, 10**6))
def test_interned_entries_are_their_values(k, n, num, den, scale):
    p = pm._gentry(k, n, num * scale, den * scale)
    assert p is pm._gentry(k, n, num, den)
    assert p == HPoly.h(k, RadScalar.of(Fraction(num, den), n))


def test_a_second_read_interns_nothing_new():
    j1, j2, j, m = half(3, 2), half(1, 1), half(5, 2), half(-1, 2)
    coupled_ket(j1, j2, j, m).entries
    size = len(pm._ENTRIES)
    entries = coupled_ket(j1, j2, j, m).entries
    assert len(pm._ENTRIES) == size
    assert {id(p) for row in entries for p in row if p} <= _interned_ids()


def test_interned_entries_stay_immutable_values():
    p = irrep(half(3, 2)).exp_hx.first_nonzero()[2]
    assert id(p) in _interned_ids()
    twin = HPoly(p.coeffs)
    for name in ("coeffs", "_text", "_json"):
        with pytest.raises(AttributeError):
            setattr(p, name, "x")
        with pytest.raises(AttributeError):
            delattr(p, name)
    assert p == twin and hash(p) == hash(twin)
    copy = pickle.loads(pickle.dumps(p))
    assert copy == p and hash(copy) == hash(p)
    assert pickle.dumps(p) == pickle.dumps(twin)


# -- the labelled constructor -------------------------------------------------

def _former_on(den, rows, rl, cl, shift, rad):
    """polymatrix._on as it was before it kept rows whose factors are all 1:
    every row rebuilt whenever a first label has a radical."""
    rb, cb = pm._basis(rl), pm._basis(cl)
    (a0, p0), (b0, q0) = (x[0] if x else (0, 1) for x in (rl, cl))
    if p0 != 1 or q0 != 1:
        rowf, colf = [gcd(p, p0) for _, p in rl], [gcd(q, q0) for _, q in cl]
        f, big = gcd(p0, q0) * gcd(pm._sf(p0, q0), rad), lcm(*colf)
        rows = [{c: v * f * rowf[i] * (big // colf[c]) for c, v in row.items()}
                if row else row for i, row in enumerate(rows)]
        den, rad = den * p0 * big, pm._sf(pm._sf(p0, q0), rad)
    return pm._graded(den, rows, rb, cb, shift + a0 - b0, rad)


RADICALS = [1, 2, 3, 5, 6, 10, 15, 30]


@st.composite
def labelled_rows(draw):
    """(den, rows, rl, cl, shift, rad) for _on; in about half the draws
    no radical on the first row label and a first column radical dividing
    every other, so every factor of the rescale is 1 unless it shares a
    prime with rad."""
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    offsets, radicals = st.integers(-3, 3), st.sampled_from(RADICALS)
    rl = [(draw(offsets), draw(radicals)) for _ in range(nrows)]
    cl = [(draw(offsets), draw(radicals)) for _ in range(ncols)]
    rad = draw(radicals)
    if draw(st.booleans()):
        q0 = draw(st.sampled_from([1, 2, 3, 5]))
        prime = st.sampled_from([r for r in RADICALS if gcd(r, q0) == 1])
        rl[0] = (rl[0][0], 1)
        cl = [(b, q0 * draw(prime) if c else q0) for c, (b, _) in enumerate(cl)]
        rad = draw(st.one_of(prime, st.just(q0)))
    rows = [draw(st.dictionaries(st.integers(0, ncols - 1),
                                 st.integers(-50, 50).filter(bool), max_size=ncols))
            for _ in range(nrows)]
    return draw(st.integers(1, 12)), rows, rl, cl, draw(st.integers(-2, 2)), rad


def _fields(g):
    return g.den, g.rows, g.rb, g.cb, g.shift, g.rad


@examples(60)
@given(labelled_rows())
def test_labelled_storage_is_that_of_the_former_rescale(args):
    assert _fields(pm._on(*args)) == _fields(_former_on(*args))


def test_labelled_rows_are_kept_when_every_factor_is_1():
    # No radical on the first row label, and 3 divides both column radicals:
    # every factor is 1, so the rows are not rebuilt.
    rows = [{0: 1, 1: 1}, {1: 1}]
    g = pm._on(1, rows, [(0, 1), (-1, 2)], [(0, 3), (-1, 6)], 0, 1)
    assert all(a is b for a, b in zip(g.rows, rows))
    assert _fields(g) == _fields(_former_on(1, rows, [(0, 1), (-1, 2)],
                                            [(0, 3), (-1, 6)], 0, 1))


# -- storages built in known bases ------------------------------------------------

# The row labels of the n-row ladder basis, moved so that the first is (0, 1):
# (-i, sqfree(i! (n-1-i)! (n-1)!)).  Written out up to n = 4.
LADDER_LABELS = {1: ((0, 1),), 2: ((0, 1), (-1, 1)),
                 3: ((0, 1), (-1, 2), (-2, 1)),
                 4: ((0, 1), (-1, 3), (-2, 3), (-3, 1))}


def _ladder_labels(n):
    return tuple((-i, squarefree_decompose(
        factorial(i) * factorial(n - 1 - i) * factorial(n - 1))[0]) for i in range(n))


def _storage(m):
    """The interned bases' labels, den, rows and constant of graded m."""
    g = m._g
    assert all(pm._BASES[b.labels] is b for b in (g.rb, g.cb))
    return g.rb.labels, g.cb.labels, g.den, g.rows, g.shift, g.rad


def test_zeros_and_identities_are_graded_in_known_bases():
    assert all(_ladder_labels(n) == labels for n, labels in LADDER_LABELS.items())
    for n in range(1, 9):
        labels = _ladder_labels(n)
        assert _storage(PolyMatrix.identity(n)) == (
            labels, labels, 1, tuple({i: 1} for i in range(n)), 0, 1)
        for c in range(1, 9):
            assert _storage(PolyMatrix.zeros(n, c)) == (
                labels, _ladder_labels(c), 1, ({},) * n, 0, 1)
    # The Fock identity, read back as e^{hX} - X h: the graded kernel adds
    # only in the identity's own bases and constant.  The unit of the Fock
    # module's generators is the same storage.
    fock = ((0, 1), (0, 1), (1, 1), (1, 1))
    gens = fermion_realization()[0].gens
    want = (fock, fock, 1, tuple({i: 1} for i in range(4)), 0, 1)
    assert _storage(gens.ep - gens.x * HPoly.h(1)) == want
    assert _storage(gens.of(Generator.UNIT)) == want
