"""Check details: a failing zero check says where its residual is nonzero,
and a residual formed in one pass (lincomb) fails with the names and
details that the difference of its two sides gives."""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import examples
from jordanian import coupling
from jordanian.coupling import AlphaTable, alpha_table, coupled_labels, decompose
from jordanian.halfint import casimir_eigenvalue, half
from jordanian.hpoly import HPoly
from jordanian.irreps import (Generator, antipode_matrix, casimir_from_gens,
                              coproduct_gens, coproduct_terms, irrep)
from jordanian.polymatrix import PolyMatrix, _msum, commutator, kron, lincomb
from jordanian.report import (Check, CheckBlock, Report, entry_checks,
                              residual_checks, scalar_check, zero_check)
from jordanian.tensorops import (TensorOpFamily, boson_raising_family,
                                 rank1_generators, verify_tensor_operator)


def _perturbed_relation():
    """[X, Y] - H on spin 1, with h*3 added at (row m=0, col m=-1)."""
    rep = irrep(1)
    bump = PolyMatrix([[0, 0, 0], [0, 0, HPoly.h(1, 3)], [0, 0, 0]],
                      rep.weights, rep.weights)
    return commutator(rep.x, rep.y) - rep.hm + bump


def test_passing_check_detail_is_unchanged():
    rep = irrep(1)
    check = zero_check("[X,Y] = H", commutator(rep.x, rep.y) - rep.hm)
    assert (check.status, check.detail) == ("pass", "exact zero")


def test_failure_names_weights_and_counts_nonzero_entries():
    check = zero_check("[X,Y] = H", _perturbed_relation())
    assert check.status == "fail"
    assert check.detail == ("residual degree 1; 1 of 9 entries nonzero; "
                            "first (1,2) [row m=0, col m=-1] = (3)*h")


def test_failure_without_weights_gives_indices_only():
    residual = kron(_perturbed_relation(), PolyMatrix.identity(2))
    assert residual.row_weights is None
    check = zero_check("lifted", residual)
    assert check.detail == ("residual degree 1; 2 of 36 entries nonzero; "
                            "first (2,4) = (3)*h")


def _left_right():
    """H^2 against [X, Y] H on spin 1, and the same with one entry bumped."""
    rep = irrep(1)
    good = commutator(rep.x, rep.y) @ rep.hm
    return rep.hm @ rep.hm, good, good + _perturbed_relation() * 2


def _eager_residual_checks(sides, templates, cells):
    """The reference for residual_checks: the same checks from sides
    (left, right, part) that keep both matrices, each difference formed
    whole by the operators and sliced."""
    same = [left == right for left, right, _ in sides]
    if all(same):
        return CheckBlock(tuple(templates), cells, "pass", "exact zero")
    paired = list(zip(same, sides, templates, strict=True))
    diffs = {}
    checks = []
    for a, cell in enumerate(cells):
        for s, (equal, (left, right, part), t) in enumerate(paired):
            name = t.format(*cell)
            if equal or part(left, a) == part(right, a):
                checks.append(Check(name, "pass", "exact zero"))
            else:
                if s not in diffs:
                    diffs[s] = left - right
                checks.append(zero_check(name, part(diffs[s], a)))
    return checks


def _residual_sides(sides):
    """(left, right, part) sides as residual_checks takes them."""
    return [(lincomb(((1, left), (-1, right))), part) for left, right, part in sides]


def _same_checks(sides, templates, cells):
    """residual_checks on the residuals of sides, asserted to give the
    reference's checks (a block as a block); the checks."""
    checks = residual_checks(_residual_sides(sides), templates, cells)
    want = _eager_residual_checks(sides, templates, cells)
    assert type(checks) is type(want)
    if type(want) is CheckBlock:
        assert (checks.templates, checks.cells, checks.status, checks.detail) == (
            want.templates, want.cells, want.status, want.detail)
    assert list(checks) == list(want)
    return checks


def test_residual_checks_report_slices_of_the_difference():
    left, good, bad = _left_right()
    cells = [(c,) for c in range(left.cols)]
    for right in (good, bad):
        checks = _same_checks([(left, right, PolyMatrix.column)],
                              ["column {0}"], cells)
        for c, check in zip(range(left.cols), checks, strict=True):
            name = f"column {c}"
            assert check == zero_check(name, (left - right).column(c))
    assert type(residual_checks(_residual_sides([(left, good, PolyMatrix.column)]),
                                ["column {0}"], cells)) is CheckBlock


def test_residual_checks_interleave_their_sides_per_cell():
    # Cells outer, sides inner; one side that differs sends every side
    # through its slices, and the sides that agree still pass.
    left, good, bad = _left_right()
    sides = [(left, good, PolyMatrix.row), (left, bad, PolyMatrix.column)]
    checks = _same_checks(sides, ["row {0}", "column {0}"],
                          [(a,) for a in range(3)])
    assert checks == [
        zero_check(f"{kind} {a}", part(left - right, a))
        for a in range(3)
        for kind, (_, right, part) in zip(("row", "column"), sides)]
    assert [c.status for c in checks[::2]] == ["pass"] * 3
    with pytest.raises(ValueError):  # a side without its template
        residual_checks(_residual_sides(sides), ["row {0}"], [(0,)])


def _eager_tensor_operator_checks(fam):
    """The reference for verify_tensor_operator: each side of ad c(t_m) =
    sum_k D(c)[k, m] t_k formed whole by the operators (the right side the
    zero matrix when no D(c)[k, m] is nonzero), a passing check when they
    are equal and else the zero_check of their difference."""
    rep, ctx, checks = irrep(fam.rank), fam.ctx, []
    for gen, dmat in ((Generator.X, rep.x), (Generator.Y, rep.y),
                      (Generator.H, rep.hm)):
        d = dmat.entries
        for col, m in enumerate(fam.weights):
            lhs = _msum(ctx.target.of(a) @ fam.components[col]
                        @ antipode_matrix(b, ctx.source)
                        for a, b in coproduct_terms(gen))
            terms = [t * d[k][col] for k, t in enumerate(fam.components) if d[k][col]]
            rhs = _msum(terms) if terms else PolyMatrix.zeros(lhs.rows, lhs.cols)
            name = f"ad {gen.value} on component m={m}"
            checks.append(Check(name, "pass", "exact zero") if lhs == rhs
                          else zero_check(name, lhs - rhs))
    return checks


@pytest.mark.parametrize("build, j", [(boson_raising_family, half(1)),
                                      (rank1_generators, half(1))],
                         ids=["boson raising", "rank 1"])
def test_a_perturbed_tensor_operator_fails_as_its_differences_would(build, j):
    # One entry of each component raised by h in turn: the checks keep the
    # names and details of the sides' differences, weights and all,
    # including those whose right side is zero.
    fam = build(j)
    for comp, t in enumerate(fam.components):
        bump = PolyMatrix([[HPoly.h(1) if (i, k) == (0, t.cols - 1) else 0
                            for k in range(t.cols)] for i in range(t.rows)],
                          t.row_weights, t.col_weights)
        comps = list(fam.components)
        comps[comp] = t + bump
        bad = TensorOpFamily(rank=fam.rank, components=tuple(comps), ctx=fam.ctx)
        report = verify_tensor_operator(bad)
        assert not report.ok
        assert report.checks == _eager_tensor_operator_checks(bad)
    assert verify_tensor_operator(fam).checks == _eager_tensor_operator_checks(fam)


def test_a_perturbed_cgc_entry_fails_the_casimir_certificate_as_before(monkeypatch):
    # C with one entry raised by 1: the certificate raises at the first
    # column of Cas K C - K C diag(j(j+1)) that is not zero, formed here by
    # the operators.
    j1, j2 = half(1), half(1, 2)
    kept = alpha_table(j1, j2)
    c = kept.cgc
    bump = PolyMatrix([[1 if (i, k) == (1, 4) else 0 for k in range(c.cols)]
                       for i in range(c.rows)])
    bad = AlphaTable(j1, j2, kept.ket, kept.bra, c + bump)
    real = coupling.alpha_table
    monkeypatch.setattr(coupling, "alpha_table",
                        lambda a, b: bad if (a, b) == (j1, j2) else real(a, b))
    labels = coupled_labels(j1, j2)
    g1, g2 = irrep(j1).gens(), irrep(j2).gens()
    kc = bad.coupled
    left = casimir_from_gens(coproduct_gens(g1, g2)) @ kc
    right = kc @ PolyMatrix.diagonal([casimir_eigenvalue(j) for j, _ in labels])
    i = (left - right).transpose().first_nonzero()[0]
    want = "coupled Casimir eigenvalue mismatch at j={}, m={}".format(*labels[i])
    coupling._certified_decomposition.built.clear()
    try:
        with pytest.raises(ArithmeticError) as exc:
            decompose(j1, j2)
    finally:
        coupling._certified_decomposition.built.clear()
    assert str(exc.value) == want


def _row_major(n):
    """Templates (one per column k) and cells (one per row i) that name
    entry (i, k) "(i,k)", and the same names in row-major order."""
    return ([f"({{0}},{k})" for k in range(n)], [(i,) for i in range(n)],
            [(f"({i},{k})", i, k) for i in range(n) for k in range(n)])


def test_entry_checks_match_scalar_checks():
    left, good, bad = _left_right()
    templates, rows, cells = _row_major(3)
    for right in (good, bad):
        assert list(entry_checks(left, right, templates, rows,
                                 by_row=True)) == [
            scalar_check(name, left.entry(i, k), right.entry(i, k))
            for name, i, k in cells]
        # The cells index the columns when by_row is false.
        assert list(entry_checks(
            left, right, [f"({i},{{0}})" for i in range(3)],
            [(k,) for k in range(3)], by_row=False)) == [
            scalar_check(f"({i},{k})", left.entry(i, k), right.entry(i, k))
            for k in range(3) for i in range(3)]
    assert any(c.status == "fail" for c in entry_checks(
        left, bad, templates, rows, by_row=True))
    block = entry_checks(left, good, templates, rows, by_row=True)
    assert type(block) is CheckBlock and len(block) == 9


# -- check blocks ------------------------------------------------------------

_texts = st.text(st.sampled_from("{}a -/,é\n\"") | st.characters(), max_size=6)


@st.composite
def _blocks(draw):
    """A block with random templates over random label cells: literal text
    (braces doubled) and placeholders {i} below the cells' length."""
    arity = draw(st.integers(0, 3))
    fields = st.integers(0, arity - 1).map("{{{}}}".format) if arity else \
        st.nothing()
    literal = _texts.map(lambda t: t.replace("{", "{{").replace("}", "}}"))
    templates = draw(st.lists(st.lists(literal | fields, max_size=4).map(
        "".join), min_size=1, max_size=3))
    cells = draw(st.lists(st.tuples(*[_texts] * arity), max_size=4))
    return CheckBlock(tuple(templates), tuple(cells),
                      draw(st.sampled_from(["pass", "fail", "skip"])),
                      draw(_texts))


def _eager(items):
    """items with each block replaced by its checks, names formatted."""
    out = []
    for item in items:
        if type(item) is CheckBlock:
            out += [Check(t.format(*cell), item.status, item.detail)
                    for cell in item.cells for t in item.templates]
        else:
            out.append(item)
    return out


_items = st.lists(_blocks() | st.builds(
    Check, _texts, st.sampled_from(["pass", "fail", "skip"]), _texts),
    max_size=4)


@examples(100)
@given(_items)
def test_blocks_expand_to_the_eager_check_list(items):
    eager = _eager(items)
    for item in items:
        if type(item) is CheckBlock:
            assert list(item) == _eager([item])
            assert len(item) == len(list(item.names()))
    report, expanded = Report("r", list(items)), Report("r", eager)
    assert report.checks == eager
    assert report.counts() == expanded.counts()
    assert report.ok == expanded.ok
    assert report.failures() == expanded.failures()
    for passing in (True, False):
        assert report.lines(passing) == expanded.lines(passing)
    assert expanded.lines(False) == [line for line in expanded.lines()
                                     if not line.startswith("PASS")]


def test_report_extend_adds_a_block_as_one_item(monkeypatch):
    # Report.add is called once per check, a block once per check it
    # holds, while the block is stored once; a record added twice in a row
    # is two checks.
    added = []
    original = Report.add

    def add(self, item):
        added.append(item)
        original(self, item)
    monkeypatch.setattr(Report, "add", add)
    block = CheckBlock(("a{0}", "b{0}"), (("1",), ("2",)), "pass", "exact")
    report = Report("r")
    report.extend(block)
    report.extend([Check("c", "fail", "x")])
    assert added == [block] * 4 + [Check("c", "fail", "x")]
    assert report.items == [block, Check("c", "fail", "x")]
    again = Report("again")
    again.extend([added[-1], added[-1]])
    assert again.items == [added[-1]] * 2
    assert [c.name for c in report.checks] == ["a1", "b1", "a2", "b2", "c"]
    assert report.counts() == {"pass": 4, "fail": 1, "skip": 0}
    assert report.failures() == [Check("c", "fail", "x")]


def test_check_records_are_slotted_and_survive_pickle_and_deepcopy():
    # A check record holds no per-instance dict (slots), and a frozen slotted
    # record must still pickle and deep-copy to an equal record.
    check = Check("[X,Y] = H", "fail", "residual degree 1")
    assert not hasattr(check, "__dict__")
    for copied in (pickle.loads(pickle.dumps(check)), copy.deepcopy(check)):
        assert copied == check and copied is not check
        assert (copied.name, copied.status, copied.detail) == (
            "[X,Y] = H", "fail", "residual degree 1")
    with pytest.raises(AttributeError):
        check.status = "pass"
