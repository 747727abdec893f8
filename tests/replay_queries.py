"""Replay every recorded query of the benchmark and compare its output.

    python3 tests/replay_queries.py

Runs each argv of ``perfbench/workloads.all_requests()`` through
``jordanian.cli.main`` in this process and compares the 16-hex SHA-256
prefix of its standard output with ``query_digests`` in
``perfbench/expected.json``.  Exits 1 and lists every argv whose output
differs, whose exit code is not 0 or that has no recorded digest; exits 0
when all match.  It only reads ``perfbench/``.  The file name has no
``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from jordanian import cli  # noqa: E402


def main() -> int:
    expected = json.loads((ROOT / "perfbench" / "expected.json")
                          .read_text(encoding="utf-8"))["query_digests"]
    requests = workloads.all_requests()
    differing = []
    for argv in requests:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        digest = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()[:16]
        key = " ".join(argv)
        if code != 0 or expected.get(key) != digest:
            differing.append(f"{key}  (exit {code}, digest {digest}, "
                             f"recorded {expected.get(key)})")
    print(f"{len(differing)} of {len(requests)} query outputs differ from "
          f"perfbench/expected.json")
    for line in differing:
        print(f"  {line}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
