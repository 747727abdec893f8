"""Verification reports: named checks with exact residual descriptions."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter


@dataclass(frozen=True, slots=True)
class Check:
    name: str
    status: str  # "pass" | "fail" | "skip"
    detail: str = ""


_status = attrgetter("status")


@dataclass
class Report:
    suite: str
    checks: list[Check] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return "fail" not in map(_status, self.checks)

    def counts(self) -> dict[str, int]:
        tally = Counter(map(_status, self.checks))
        return {s: tally[s] for s in ("pass", "fail", "skip")}

    def add(self, check: Check) -> None:
        self.checks.append(check)

    def note(self, message: str) -> None:
        self.notes.append(message)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if c.status == "fail"]

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            mark = {"pass": "PASS", "fail": "FAIL", "skip": "SKIP"}[c.status]
            out.append(f"{mark}  {c.name}" + (f": {c.detail}" if c.detail else ""))
        for n in self.notes:
            out.append(f"NOTE  {n}")
        return out

    def to_json(self) -> dict:
        """The report as a JSON payload for cli._json_text, which writes
        the Check records under "checks" as objects with the keys detail,
        name and status.  The checks are handed over as they are, not
        copied into one dict each; counts and passed come from one pass."""
        counts = self.counts()
        return {
            "suite": self.suite,
            "checks": self.checks,
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


def residual_checks(left, right):
    """A function (name, part) -> the zero_check of part(left - right),
    where part slices a matrix (a column, a row).  A slice on which left
    and right agree passes without the difference being formed; the
    difference is formed once, for the first slice that differs."""
    same = left == right
    diff = []

    def check(name: str, part) -> Check:
        if same or part(left) == part(right):
            return Check(name, "pass", "exact zero")
        if not diff:
            diff.append(left - right)
        return zero_check(name, part(diff[0]))
    return check


def entry_checks(left, right, cells) -> list[Check]:
    """The scalar_check of entry (i, k) of left against that of right for
    each (name, i, k) of cells.  When the two matrices are equal, every
    check passes without an entry being read."""
    if left == right:
        return [Check(name, "pass", "exact") for name, _, _ in cells]
    return [scalar_check(name, left.entry(i, k), right.entry(i, k))
            for name, i, k in cells]


def scalar_check(name: str, left, right) -> Check:
    """A check that two scalars agree exactly."""
    if left == right:
        return Check(name, "pass", "exact")
    return Check(name, "fail", f"{left} != {right}")
