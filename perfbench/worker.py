"""One benchmark worker process: set up, run one timed section, report.

run.py starts a fresh worker for every pass, so every pass pays cold memos
as a command-line user does.  Usage:

    python3 perfbench/worker.py ROOT WORKLOAD SEED SIZE MODE [KERNEL]

MODE is ``setup`` (stop after set-up), ``pass`` (timed section),
``trace`` (timed section under the tracer) or ``kernel``.  The worker
prints one JSON object on its last stdout line; its ``ready`` field is the
``time.monotonic()`` reading at the end of set-up.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def reference_loop() -> None:
    acc = Fraction(0)
    table: dict[int, int] = {}
    for i in range(1, 1000):
        acc += Fraction(i % 97, i % 89 + 1)
        table[i % 256] = table.get(i % 256, 0) + i


class SpeedProbe:
    """Times a fixed pure-Python loop (Fraction and dict work, like the
    program's own) about every ``INTERVAL_S`` seconds of a pass.

    On a shared host the machine's speed drifts by about 20 % over minutes,
    and every time measured drifts with it.  An interval divided by the
    loop time measured around it is in *reference loops*, and drifts far
    less.  The probe's own time is kept out of every measured interval:
    ``clock()`` is ``perf_counter()`` minus the time spent in the probe.
    """

    INTERVAL_S = 0.2

    def __init__(self):
        self.at: list[float] = []      # clock() when each sample ended
        self.took: list[float] = []
        self.spent = 0.0
        self.last = 0.0
        self.levels: list[float] | None = None

    def sample(self) -> None:
        start = time.perf_counter()
        reference_loop()
        self.last = time.perf_counter()
        self.spent += self.last - start
        self.at.append(self.clock())
        self.took.append(self.last - start)
        self.levels = None

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= self.INTERVAL_S:
            self.sample()

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def seconds(self) -> float:
        return statistics.median(self.took)

    def _levels(self) -> list[float]:
        """Loop time around each sample: median of it and two neighbours
        on each side, so one disturbed sample does not count."""
        if self.levels is None:
            took = self.took
            self.levels = [statistics.median(took[max(0, i - 2):i + 3])
                           for i in range(len(took))]
        return self.levels

    def loops(self, start: float, end: float) -> float:
        """The interval [start, end] of clock() in reference loops: each
        part is divided by the loop time of the sample nearest to it."""
        middles = [(a + b) / 2 for a, b in zip(self.at, self.at[1:])]
        edges = [start] + [min(max(m, start), end) for m in middles] + [end]
        return sum((hi - lo) / level for lo, hi, level
                   in zip(edges, edges[1:], self._levels()))

    def level_at(self, t: float) -> float:
        """Loop time of the sample nearest to clock() reading ``t``."""
        i = bisect.bisect_left(self.at, t)
        if i == len(self.at) or (i > 0 and t - self.at[i - 1] < self.at[i] - t):
            i -= 1
        return self._levels()[i]


def output_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class SuiteCounter:
    """Records how many reports each verify suite returns, so the reports
    of a whole-run JSON output can be assigned to their suites."""

    def __init__(self, cli):
        self.lengths: list[tuple[str, int]] = []
        cli.SUITES = tuple((name, self._wrap(name, fn))
                           for name, fn in cli.SUITES)

    def _wrap(self, name, fn):
        def suite(max_j):
            reports = fn(max_j)
            self.lengths.append((name, len(reports)))
            return reports
        return suite


def sample_between_checks(report_cls, probe: SpeedProbe) -> None:
    """Hook ``Report.add`` so that the probe samples when it is due."""
    original = report_cls.add

    def add(self, check):
        original(self, check)
        probe.maybe_sample()
    report_cls.add = add


def summarize_verify(payloads, lengths) -> dict:
    """Per suite: checks, passed checks and NOTE lines."""
    reports = [r for payload in payloads for r in payload["suites"]]
    suites = {}
    pos = 0
    for name, n in lengths:
        chunk = reports[pos:pos + n]
        pos += n
        suites[name] = {
            "checks": sum(len(r["checks"]) for r in chunk),
            "passed": sum(r["counts"]["pass"] for r in chunk),
            "notes": [note for r in chunk for note in r["notes"]],
        }
    return suites


def verify_pass(cli, root: Path, workload: str, size: str) -> dict:
    argvs = workloads.VERIFY_ARGS[workload][size]
    out = root / ".perfbench" / f"verify-{os.getpid()}.json"
    counter = SuiteCounter(cli)
    probe = SpeedProbe()
    sample_between_checks(sys.modules["jordanian.report"].Report, probe)
    payloads, codes, calls = [], [], []
    for argv in argvs:
        probe.sample()
        start = probe.clock()
        codes.append(cli.main(argv + ["--format", "json", "--out", str(out)]))
        calls.append((start, probe.clock()))
        payloads.append(json.loads(out.read_text(encoding="utf-8")))
    probe.sample()
    out.unlink()
    return {
        "wall_s": sum(end - start for start, end in calls),
        "wall_ref": sum(probe.loops(start, end) for start, end in calls),
        "ref_s": probe.seconds(),
        "codes": codes,
        "passed_flags": [p["passed"] for p in payloads],
        "suites": summarize_verify(payloads, counter.lengths),
    }


def queries_pass(cli, stream) -> dict:
    latencies, ends, codes, digests = [], [], [], []
    buf = io.StringIO()
    probe = SpeedProbe()
    probe.sample()
    start = probe.clock()
    with contextlib.redirect_stdout(buf):
        for _, argv in stream:
            t = time.perf_counter()
            code = cli.main(argv)
            latencies.append(time.perf_counter() - t)
            ends.append(probe.clock())
            codes.append(code)
            digests.append(output_digest(buf.getvalue()))
            buf.seek(0)
            buf.truncate()
            probe.maybe_sample()
    end = probe.clock()
    probe.sample()
    return {"wall_s": end - start, "wall_ref": probe.loops(start, end),
            "ref_s": probe.seconds(), "codes": codes, "digests": digests,
            "latencies": latencies,
            "latencies_ref": [d / probe.level_at(t)
                              for d, t in zip(latencies, ends)],
            "requests": [" ".join(argv) for _, argv in stream],
            "repeat_share": workloads.repeat_share(
                workloads.request_key(argv) for _, argv in stream),
            "spin_key_repeat_share": workloads.repeat_share(
                key for key, _ in stream)}


def trace_metrics(tracer, result) -> dict:
    spans = tracer.span_table()

    def span(name, field):
        calls, total, own = spans.get(name, (0, 0.0, 0.0))
        return {"calls": calls, "s": total, "self_s": own}[field]

    m = {}
    for name in ("halfint.hash", "radical.add", "radical.mul",
                 "radical.sqrt_factorial_ratio", "hpoly.mul", "hpoly.add",
                 "coupling.AlphaTable.value", "report.add",
                 "serialize.scalar_to_json"):
        m[f"{name}.calls"] = tracer.count(f"{name}.calls")
    nz, slots = tracer.hpoly_slots
    m["hpoly.mul.fill"] = nz / slots if slots else 0.0
    products, cube = tracer.matmul_work
    m["polymatrix.matmul.calls"] = span("polymatrix.matmul", "calls")
    m["polymatrix.matmul.self_s"] = span("polymatrix.matmul", "self_s")
    m["polymatrix.matmul.products"] = products
    m["polymatrix.matmul.fill"] = products / cube if cube else 0.0
    m["polymatrix.kron.calls"] = span("polymatrix.kron", "calls")
    m["polymatrix.kron.self_s"] = span("polymatrix.kron", "self_s")
    m["polymatrix.exp_nilpotent.s"] = span("polymatrix.exp_nilpotent", "s")
    m["polymatrix.unipotent_inverse.s"] = span("polymatrix.unipotent_inverse",
                                               "s")
    for name in ("irreps.irrep", "coupling.alpha_table"):
        m[f"{name}.calls"] = span(name, "calls")
        m[f"{name}.distinct"] = tracer.distinct(name)
        m[f"{name}.build_s"] = tracer.first_call_seconds(name)
    m["irreps.coproduct_gens.calls"] = span("irreps.coproduct_gens", "calls")
    for name in ("irreps.coproduct_gens", "irreps.sl2_from_gens",
                 "irreps.casimir_from_gens", "coupling.decompose",
                 "coupling.coupled_basis", "tensorops.adjoint_action",
                 "serialize.matrix_to_json", "cli.build_parser"):
        m[f"{name}.s"] = span(name, "s")
    m["coupling.sl2_cgc.calls"] = span("coupling.sl2_cgc", "calls")
    m["coupling.sl2_cgc.distinct"] = tracer.distinct("coupling.sl2_cgc")
    for name in ("coupling.uh_cgc", "coupling.uh_cgc_bra",
                 "coupling.intermediate_ket", "coupling.intermediate_bra",
                 "tensorops.adjoint_action"):
        m[f"{name}.calls"] = span(name, "calls")
    for name in ("coupling.verify_alpha_orthogonality",
                 "coupling.verify_intermediate_orthonormality",
                 "coupling.verify_intermediate_action",
                 "tensorops.verify_tensor_operator",
                 "wigner.verify_wigner_eckart", "wigner.verify_phi_recurrence",
                 "wigner.verify_overlap_recurrence", "cli.handler"):
        m[f"{name}.self_s"] = span(name, "self_s")
    construct, per_suite = tracer.construction()
    for suite in workloads.SUITES:
        total = span(f"cli.suite.{suite}", "s")
        m[f"cli.suite.{suite}.s"] = total
        m[f"cli.suite.{suite}.construct_s"] = per_suite.get(suite, 0.0)
        m[f"cli.suite.{suite}.check_s"] = total - per_suite.get(suite, 0.0)
    m["construct_s"] = construct
    m["check_s"] = result["wall_s"] - construct
    return m


def main(argv: list[str]) -> int:
    root, workload, seed, size, mode = argv[:5]
    root = Path(root)
    seed = int(seed)
    os.environ.pop("JORDANIAN_FORMAT", None)
    (root / ".perfbench").mkdir(exist_ok=True)
    sys.path.insert(0, str(root / "src"))
    from jordanian import cli

    stream = None
    if workload == "queries":
        stream = workloads.query_stream(seed, workloads.QUERY_COUNT[size])
    ready = time.monotonic()
    if mode == "setup":
        result = {}
    elif mode == "kernel":
        import kernels
        result = kernels.run(argv[5])
    else:
        tracer = None
        if mode == "trace":
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        if workload == "queries":
            result = queries_pass(cli, stream)
        else:
            result = verify_pass(cli, root, workload, size)
        if tracer is not None:
            result["layers"] = trace_metrics(tracer, result)
            tracer.write_spans(root / ".perfbench" / f"spans-{workload}.tsv")
            result.pop("latencies", None)
            result.pop("latencies_ref", None)
    result["ready"] = ready
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
