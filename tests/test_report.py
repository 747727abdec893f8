"""Check details: a failing zero check says where its residual is nonzero."""

import copy
import pickle

import pytest

from jordanian.hpoly import HPoly
from jordanian.irreps import irrep
from jordanian.polymatrix import PolyMatrix, commutator, kron
from jordanian.report import (Check, entry_checks, residual_checks,
                              scalar_check, zero_check)


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
    for right in (good, bad):
        check = residual_checks(left, right)
        for c in range(left.cols):
            name = f"column {c}"
            assert check(name, lambda m: m.column(c)) == \
                zero_check(name, (left - right).column(c))


def test_entry_checks_match_scalar_checks():
    left, good, bad = _left_right()
    cells = [(f"({i},{k})", i, k) for i in range(3) for k in range(3)]
    for right in (good, bad):
        assert entry_checks(left, right, cells) == [
            scalar_check(name, left.entry(i, k), right.entry(i, k))
            for name, i, k in cells]
    assert any(c.status == "fail" for c in entry_checks(left, bad, cells))


def test_check_records_are_slotted_and_survive_pickle_and_deepcopy():
    # A check record holds no per-instance dict (slots), and a frozen slotted
    # dataclass must still pickle and deep-copy to an equal record.
    check = Check("[X,Y] = H", "fail", "residual degree 1")
    assert not hasattr(check, "__dict__")
    for copied in (pickle.loads(pickle.dumps(check)), copy.deepcopy(check)):
        assert copied == check and copied is not check
        assert (copied.name, copied.status, copied.detail) == (
            "[X,Y] = H", "fail", "residual degree 1")
    with pytest.raises(AttributeError):
        check.status = "pass"
