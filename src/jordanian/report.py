"""Verification reports: named checks with exact residual descriptions.

A report holds two kinds of items, in the order they were added:

- a ``Check`` record: one named check, its status and its detail;
- a ``CheckBlock``: many checks that share one status and one detail, as
  when one ``==`` between two whole matrices has proved every cell.  A block
  keeps name templates and label cells, and formats a check's name only
  when the check is written (JSON, CSV, verbose text) or read through
  ``Report.checks``.  The verifiers build a block only for checks that all
  pass; a comparison that fails is reported cell by cell, with the details
  each cell's own check gives.

Every check enters through ``Report.add``, one call per check: a block is
passed once for each check it holds and stored once.  ``counts``, ``ok``
and ``failures`` read block sizes and statuses without expanding a block;
``Report.checks`` and ``lines`` give one record or line per check, blocks
expanded in place.

The package defines no dataclass, whose import would generate and exec its
methods in every process: its records derive from ``record.Record``.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Sequence

from .record import Frozen, Record

_set = object.__setattr__


class Check(Frozen, Record):
    __slots__ = ("name", "status", "detail")

    def __init__(self, name: str, status: str, detail: str = ""):
        _set(self, "name", name)
        _set(self, "status", status)  # "pass" | "fail" | "skip"
        _set(self, "detail", detail)

    def names(self) -> tuple[str]:
        return (self.name,)


class CheckBlock:
    """One check per (cell, template), cells outer and templates inner,
    named template.format(*cell); every check has this status and detail.
    A plain slotted class, not a Record: blocks compare by identity."""
    __slots__ = ("templates", "cells", "status", "detail")

    def __init__(self, templates: tuple[str, ...], cells: Sequence[tuple],
                 status: str, detail: str = ""):
        self.templates, self.cells = templates, cells
        self.status, self.detail = status, detail

    def __len__(self) -> int:
        return len(self.templates) * len(self.cells)

    def names(self) -> Iterator[str]:
        formats = [t.format for t in self.templates]
        return (f(*cell) for cell in self.cells for f in formats)

    def __iter__(self) -> Iterator[Check]:
        status, detail = self.status, self.detail
        return (Check(name, status, detail) for name in self.names())


def _size(item: Check | CheckBlock) -> int:
    return 1 if type(item) is Check else len(item)


def _expanded(item: Check | CheckBlock) -> Iterable[Check]:
    return (item,) if type(item) is Check else item


_MARKS = {"pass": "PASS", "fail": "FAIL", "skip": "SKIP"}


class Report(Record):
    __hash__ = None  # mutable

    def __init__(self, suite: str, items: Iterable[Check | CheckBlock] = (),
                 notes: Iterable[str] = (), elapsed: float = 0.0):
        self.suite, self.items, self.notes = suite, list(items), list(notes)
        self.elapsed = elapsed

    @property
    def checks(self) -> list[Check]:
        """Every check as a Check record, blocks expanded in place."""
        return [c for item in self.items for c in _expanded(item)]

    @property
    def ok(self) -> bool:
        return not self.counts()["fail"]

    def counts(self) -> dict[str, int]:
        tally = Counter()
        for item in self.items:
            tally[item.status] += _size(item)
        return {s: tally[s] for s in ("pass", "fail", "skip")}

    def add(self, item: Check | CheckBlock) -> None:
        """Add one check.  A block is added once per check it holds, and
        only the first of those calls stores it, so add is called once per
        check whatever its form: code that wraps add to count checks or to
        act between them sees every check."""
        items = self.items
        if type(item) is Check or not items or items[-1] is not item:
            items.append(item)

    def extend(self, checks: CheckBlock | Iterable[Check]) -> None:
        """Add each check of a block or of any other iterable."""
        if type(checks) is CheckBlock:
            for _ in range(len(checks)):
                self.add(checks)
        else:
            for check in checks:
                self.add(check)

    def note(self, message: str) -> None:
        self.notes.append(message)

    def failures(self) -> list[Check]:
        return [c for item in self.items if item.status == "fail"
                for c in _expanded(item)]

    def lines(self, passing: bool = True) -> list[str]:
        """One line per check, then one per note.  passing=False leaves the
        PASS lines out, and formats none of their names."""
        out = []
        for item in self.items:
            if passing or item.status != "pass":
                mark = _MARKS[item.status]
                tail = f": {item.detail}" if item.detail else ""
                out += [f"{mark}  {name}{tail}" for name in item.names()]
        for n in self.notes:
            out.append(f"NOTE  {n}")
        return out

    def to_json(self) -> dict:
        """The report as a JSON payload for cli._json_text, which writes
        the items under "checks" as one object per check with the keys
        detail, name and status, a block's objects from one template.  The
        items are handed over as they are; counts and passed come from
        one pass."""
        counts = self.counts()
        return {
            "suite": self.suite,
            "checks": self.items,
            "notes": list(self.notes),
            "counts": counts,
            "passed": not counts["fail"],
            "elapsed_s": round(self.elapsed, 6),
        }


def zero_check(name: str, residual) -> Check:
    """A check that passes iff the residual matrix is exactly zero.

    A failure names the first nonzero entry, with its row and column
    weights where the residual carries them, and counts the nonzero
    entries.
    """
    if residual.is_zero:
        return Check(name, "pass", "exact zero")
    i, k, p = residual.first_nonzero()
    labels = []
    if residual.row_weights is not None:
        labels.append(f"row m={residual.row_weights[i]}")
    if residual.col_weights is not None:
        labels.append(f"col m={residual.col_weights[k]}")
    where = f"({i},{k})" + (f" [{', '.join(labels)}]" if labels else "")
    nonzero = sum(1 for row in residual.entries for q in row if q)
    return Check(name, "fail",
                 f"residual degree {residual.max_degree()}; {nonzero} of "
                 f"{residual.rows * residual.cols} entries nonzero; "
                 f"first {where} = {p}")


def residual_checks(sides, templates: Sequence[str],
                    cells: Sequence[tuple]) -> CheckBlock | list[Check]:
    """The zero_check of part(left - right, a) for each cell a (outer) and
    each side (left, right, part) with its template (inner), named
    template.format(*cell); part slices a matrix, as PolyMatrix.column
    does.  When every left equals its right, one passing block stands for
    all of them and nothing is sliced.  Otherwise a side whose left equals
    its right passes slice by slice, and so does a slice on which they
    agree; a side's difference is formed once, at its first slice that
    differs."""
    same = [left == right for left, right, _ in sides]
    if all(same):
        return CheckBlock(tuple(templates), cells, "pass", "exact zero")
    paired = list(zip(same, sides, templates, strict=True))
    diffs: dict[int, object] = {}
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


def entry_checks(left, right, templates: Sequence[str],
                 cells: Sequence[tuple], *,
                 by_row: bool) -> CheckBlock | list[Check]:
    """The scalar_check of each entry of left against that of right, one
    per (cell, template), cells outer and templates inner, named
    template.format(*cell).  The cells index the rows and the templates
    the columns if by_row, and the other way round if not.  When the two
    matrices are equal, one passing block stands for every entry and none
    is read."""
    if left == right:
        return CheckBlock(tuple(templates), cells, "pass", "exact")
    checks = []
    for a, cell in enumerate(cells):
        for b, t in enumerate(templates):
            i, k = (a, b) if by_row else (b, a)
            checks.append(scalar_check(t.format(*cell), left.entry(i, k),
                                       right.entry(i, k)))
    return checks


def scalar_check(name: str, left, right) -> Check:
    """A check that two scalars agree exactly."""
    if left == right:
        return Check(name, "pass", "exact")
    return Check(name, "fail", f"{left} != {right}")
