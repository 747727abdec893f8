"""Replay the verify workloads of the benchmark and compare their checks.

    python3 tests/replay_verify.py

Runs each argv of ``VERIFY_ARGS`` in ``perfbench/workloads.py`` (the
``verify-pairs`` and ``verify-modules`` workloads, both sizes) through
``jordanian.cli.main`` in this process, once as CSV (one row per check,
led by its suite) and once as text (a ``=== suite:`` header before each
suite's ``NOTE`` lines).  For every suite it compares the number of checks,
the number that passed and the NOTE lines with ``verify`` in
``perfbench/expected.json``, where every recorded check passed.  Exits 1
and lists every difference, including a nonzero exit code or a suite
present on one side only; exits 0 when all match.  It only reads
``perfbench/``.  The file name has no ``test_`` prefix, so pytest does not
collect it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from jordanian import cli  # noqa: E402

SUITE_HEADER = "=== suite: "
NOTE_PREFIX = "    NOTE "


def _run(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def suite_results(argv: list[str]) -> tuple[list[int], dict[str, dict]]:
    """The exit codes of one verify argv and, per suite, its checks, passed
    checks and NOTE lines."""
    suites: dict[str, dict] = {}

    def suite(name: str) -> dict:
        return suites.setdefault(name, {"checks": 0, "passed": 0,
                                        "notes": []})

    csv_code, table = _run(argv + ["--format", "csv"])
    for row in csv.DictReader(io.StringIO(table)):
        have = suite(row["suite"])
        have["checks"] += 1
        have["passed"] += row["status"] == "pass"
    text_code, text = _run(argv + ["--format", "pretty"])
    current = None
    for line in text.splitlines():
        if line.startswith(SUITE_HEADER):
            current = line[len(SUITE_HEADER):]
        elif line.startswith(NOTE_PREFIX):
            suite(current)["notes"].append(line[len(NOTE_PREFIX):])
    return [csv_code, text_code], suites


def main() -> int:
    expected = json.loads((ROOT / "perfbench" / "expected.json")
                          .read_text(encoding="utf-8"))["verify"]
    differing, compared = [], 0
    for workload, sizes in workloads.VERIFY_ARGS.items():
        for size, argvs in sizes.items():
            want = expected[workload][size]
            have: dict[str, dict] = {}
            for argv in argvs:
                codes, suites = suite_results(argv)
                if any(codes):
                    differing.append(f"{' '.join(argv)}: exit codes {codes}")
                have.update(suites)
            for name in sorted(set(want) | set(have)):
                compared += 1
                w, h = want.get(name), have.get(name)
                if w is None or h is None:
                    differing.append(f"{workload} {size} {name}: "
                                     f"{'not recorded' if w is None else 'not run'}")
                    continue
                for field, recorded in (("checks", w["checks"]),
                                        ("passed", w["checks"]),
                                        ("notes", w["notes"])):
                    if h[field] != recorded:
                        differing.append(f"{workload} {size} {name}: {field} "
                                         f"{h[field]!r}, recorded {recorded!r}")
    print(f"{len(differing)} differences in {compared} suite results against "
          f"perfbench/expected.json")
    for line in differing:
        print(f"  {line}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
