"""Record the outputs the benchmark checks against, into expected.json.

    python3 perfbench/record_expected.py

For the verify workloads it records per-suite check counts and NOTE lines
at both sizes; for ``queries`` a digest of the output of every request the
stream can send (every seed draws from the same universe).  Run it only
when the program's output is meant to change; the benchmark otherwise
treats any difference as a failed operation.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from worker import output_digest, verify_pass  # noqa: E402


def main() -> int:
    from jordanian import cli

    (ROOT / ".perfbench").mkdir(exist_ok=True)
    verify = {}
    for workload in ("verify-pairs", "verify-modules"):
        verify[workload] = {}
        for size in ("full", "smoke"):
            result = verify_pass(cli, ROOT, workload, size)
            if any(result["codes"]) or not all(result["passed_flags"]):
                print(f"error: {workload} {size} does not pass",
                      file=sys.stderr)
                return 1
            verify[workload][size] = {
                suite: {"checks": have["checks"], "notes": have["notes"]}
                for suite, have in result["suites"].items()}
    digests = {}
    for argv in workloads.all_requests():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        if code != 0:
            print(f"error: {' '.join(argv)} exited {code}", file=sys.stderr)
            return 1
        digests[" ".join(argv)] = output_digest(buf.getvalue())
    with open(HERE / "expected.json", "w", encoding="utf-8") as fh:
        json.dump({"verify": verify, "query_digests": digests}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
