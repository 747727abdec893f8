"""Check details: a failing zero check says where its residual is nonzero."""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import examples
from jordanian.hpoly import HPoly
from jordanian.irreps import irrep
from jordanian.polymatrix import PolyMatrix, commutator, kron
from jordanian.report import (Check, CheckBlock, Report, entry_checks,
                              residual_checks, scalar_check, zero_check)


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


def test_residual_checks_report_slices_of_the_difference():
    left, good, bad = _left_right()
    cells = [(c,) for c in range(left.cols)]
    for right in (good, bad):
        checks = residual_checks([(left, right, PolyMatrix.column)],
                                 ["column {0}"], cells)
        for c, check in zip(range(left.cols), checks, strict=True):
            name = f"column {c}"
            assert check == zero_check(name, (left - right).column(c))
    assert type(residual_checks([(left, good, PolyMatrix.column)],
                                ["column {0}"], cells)) is CheckBlock


def test_residual_checks_interleave_their_sides_per_cell():
    # Cells outer, sides inner; one side that differs sends every side
    # through its slices, and the sides that agree still pass.
    left, good, bad = _left_right()
    sides = [(left, good, PolyMatrix.row), (left, bad, PolyMatrix.column)]
    checks = residual_checks(sides, ["row {0}", "column {0}"],
                             [(a,) for a in range(3)])
    assert checks == [
        zero_check(f"{kind} {a}", part(left - right, a))
        for a in range(3)
        for kind, (_, right, part) in zip(("row", "column"), sides)]
    assert [c.status for c in checks[::2]] == ["pass"] * 3
    with pytest.raises(ValueError):  # a side without its template
        residual_checks(sides, ["row {0}"], [(0,)])


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
