"""Benchmark of the ``jordanian`` exact engine, end to end and by layer.

    python3 perfbench/run.py --workload verify-pairs --seed 1 --seconds 40 --trace 0

Workloads (see workloads.py and NOTES.md):

* ``verify-pairs``   ``verify --max-j 5/2``: all four suites, the pair loop;
* ``verify-modules`` ``verify --suite S --max-j 7/2`` for the uh-algebra,
  tensor-ops and wigner-eckart suites: larger single modules, no pairs;
* ``queries``        a seeded stream of 1 500 ``irrep``/``alpha``/``cgc``/
  ``tensorop``/``decompose`` requests through ``cli.main`` in one process.

Load comes from one client in a closed loop: this process plus one worker
at a time.  Every pass runs in a fresh single-threaded worker, so memos
start cold as they do for a command-line user.  With ``--trace 0`` the run
makes set-up probes and as many passes as fit in ``--seconds`` (at least
one) and reports the end-to-end metrics.  With ``--trace 1`` it makes one
plain pass, one traced pass and the layer kernels, and reports the
per-layer metrics.  Outputs are checked against ``expected.json``, recorded
from the program with ``record_expected.py``.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--repeat N`` instead runs the benchmark N
times per workload, alternating workloads, and prints the median and
quartiles of every end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import kernels  # noqa: E402
import workloads  # noqa: E402
from worker import reference_loop  # noqa: E402

PROBES_PER_ROUND = 10
WORKER_TIMEOUT_S = 170
# setup_s is in seconds at the speed where one reference loop takes this
# long (its median on the 2-core VM of NOTES.md).
NOMINAL_LOOP_S = 0.0035


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here: no program, or a worker died."""


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        load = list(os.getloadavg())
    except OSError:
        load = None
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "loadavg": load}


def spawn(workload: str, seed: int, size: str, mode: str,
          kernel: str | None = None) -> tuple[dict, float, float]:
    """Run one worker; return (its result, set-up seconds, total seconds)."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(ROOT), workload,
           str(seed), size, mode] + ([kernel] if kernel else [])
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("JORDANIAN_FORMAT", None)
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    end = time.monotonic()
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(f"worker {mode} {workload} {kernel or ''} exited "
                             f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["ready"] - start, end - start


# -- correctness ----------------------------------------------------------------

def judge_verify(result: dict, expected: dict) -> tuple[int, int, int]:
    """(attempted, failed, passed) checks of one verify pass.

    Failed counts every check that did not pass, every check missing or
    extra against the recorded per-suite counts, one per suite whose NOTE
    lines differ, and at least one for a nonzero exit or ``passed: false``.
    """
    got = result["suites"]
    failed = 0
    for suite, want in expected.items():
        have = got.get(suite)
        if have is None:
            failed += want["checks"]
            continue
        failed += have["checks"] - have["passed"]
        failed += abs(have["checks"] - want["checks"])
        failed += have["notes"] != want["notes"]
    failed += sum(have["checks"] for suite, have in got.items()
                  if suite not in expected)
    if any(result["codes"]) or not all(result["passed_flags"]):
        failed = max(failed, 1)
    attempted = max(sum(w["checks"] for w in expected.values()),
                    sum(h["checks"] for h in got.values()))
    passed = sum(h["passed"] for h in got.values())
    return attempted, min(failed, attempted), passed


def judge_queries(result: dict, digests: dict) -> tuple[int, int, int]:
    """(attempted, failed, completed) requests of one queries pass."""
    failed = sum(code != 0 or digests.get(request) != digest
                 for request, code, digest in zip(result["requests"],
                                                  result["codes"],
                                                  result["digests"]))
    completed = sum(code == 0 for code in result["codes"])
    return len(result["codes"]), failed, completed


def load_expected(workload: str, seed: int, size: str, corrupt: bool):
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        expected = json.load(fh)
    if workload == "queries":
        table = expected["query_digests"]
        if corrupt:  # self-test: one wrong digest for the stream's first request
            stream = workloads.query_stream(seed, workloads.QUERY_COUNT[size])
            first = " ".join(stream[0][1])
            table[first] = "0" * 16
        return table
    table = expected["verify"][workload][size]
    if corrupt:  # self-test: one wrong per-suite check count
        first = next(iter(table))
        table[first]["checks"] += 1
    return table


def judge(workload: str, result: dict, expected) -> tuple[int, int, int]:
    if workload == "queries":
        return judge_queries(result, expected)
    return judge_verify(result, expected)


# -- one run ------------------------------------------------------------------

def percentile(samples: list[float], pct: int) -> float:
    """The pct-th percentile (statistics.quantiles, exclusive method)."""
    return statistics.quantiles(samples, n=100)[pct - 1]


def loop_seconds() -> float:
    """The reference loop's time now: median of nine runs."""
    took = []
    for _ in range(9):
        start = time.perf_counter()
        reference_loop()
        took.append(time.perf_counter() - start)
    return statistics.median(took)


def probe_round(workload: str, seed: int, size: str) -> list[tuple[float, float]]:
    """(set-up seconds, loop seconds just before the spawn) of
    ``PROBES_PER_ROUND`` set-up-only workers."""
    samples = []
    for _ in range(PROBES_PER_ROUND):
        loop = loop_seconds()
        samples.append((spawn(workload, seed, size, "setup")[1], loop))
    return samples


def measure(workload: str, seed: int, seconds: float, size: str,
            expected) -> dict:
    """Rounds of set-up probes before, between and after fresh-worker passes
    while they fit in ``seconds``; end-to-end metrics and correctness
    totals."""
    begin = time.monotonic()
    probes = probe_round(workload, seed, size)
    round_s = time.monotonic() - begin
    passes = []
    while True:
        result, _, total = spawn(workload, seed, size, "pass")
        passes.append(result)
        probes += probe_round(workload, seed, size)
        if time.monotonic() - begin + total + round_s > seconds:
            break
    attempted = failed = 0
    op_refs, rates, p50s, p99s = [], [], [], []
    for result in passes:
        a, f, done = judge(workload, result, expected)
        attempted += a
        failed += f
        rates.append(done / result["wall_s"])
        if workload == "queries":
            op_refs.append(statistics.median(result["latencies_ref"]))
            p50s.append(statistics.median(result["latencies"]))
            p99s.append(percentile(result["latencies"], 99))
        else:
            op_refs.append(result["wall_ref"] / max(done, 1))
    last = passes[-1]
    info = {"passes": len(passes), "setup_samples": len(probes),
            "setup_raw_s": statistics.median(s for s, _ in probes),
            "reference_loop_ms": [r["ref_s"] * 1e3 for r in passes]}
    metrics = {
        "setup_s": statistics.median(s / loop for s, loop in probes)
        * NOMINAL_LOOP_S,
        "wall_ref": statistics.median(r["wall_ref"] for r in passes),
        "op_ref": statistics.median(op_refs),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in passes),
        "wall_s": statistics.median(r["wall_s"] for r in passes),
    }
    if workload == "queries":
        info["latency_samples_per_pass"] = len(last["latencies"])
        info["repeat_share"] = last["repeat_share"]
        info["spin_key_repeat_share"] = last["spin_key_repeat_share"]
        metrics["queries_per_s"] = statistics.median(rates)
        metrics["query_p50_ms"] = statistics.median(p50s) * 1e3
        metrics["query_p99_ms"] = statistics.median(p99s) * 1e3
    else:
        info["suites"] = {suite: have["checks"]
                          for suite, have in last["suites"].items()}
        metrics["checks_per_s"] = statistics.median(rates)
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "info": info}


def measure_layers(workload: str, seed: int, size: str, expected) -> dict:
    """One plain pass, one traced pass, then every layer kernel."""
    plain = spawn(workload, seed, size, "pass")[0]
    traced = spawn(workload, seed, size, "trace")[0]
    attempted = failed = 0
    for result in (plain, traced):
        a, f, _ = judge(workload, result, expected)
        attempted += a
        failed += f
    metrics = dict(traced["layers"])
    metrics["trace.overhead"] = traced["wall_ref"] / plain["wall_ref"]
    for name in kernels.KERNELS:
        result = spawn(workload, seed, size, "kernel", name)[0]
        for field in ("cold_s", "warm_s", "ops"):
            metrics[f"kernel.{name}.{field}"] = result[field]
    info = {"plain_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"],
            "reference_loop_ms": [plain["ref_s"] * 1e3, traced["ref_s"] * 1e3],
            "spans_file": f".perfbench/spans-{workload}.tsv"}
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "info": info}


def unit_of(name: str) -> str:
    for suffixes, unit in (((".calls", ".distinct", ".products", ".ops"),
                            "count"),
                           ((".fill", ".overhead"), "ratio"),
                           (("_per_s",), "1/s"), (("_ms",), "ms"),
                           (("_ref",), "ref"),
                           (("_mb",), "MB")):
        if name.endswith(suffixes):
            return unit
    return "s"


def print_report(workload: str, outcome: dict, spec: dict, env: dict) -> None:
    """Human-readable lines: every metric with its unit, marked when
    BENCHMARK.json does not list it, then ``fail_ratio``."""
    m = outcome["metrics"]
    print(f"# workload {workload}  env {json.dumps(env)}")
    print(f"# {json.dumps(outcome['info'])}")
    for name, value in m.items():
        gated = "" if name in spec else "   (not in BENCHMARK.json)"
        print(f"{name:58s} {value:>16.6g} {unit_of(name)}{gated}")
    ratio = outcome["failed"] / outcome["attempted"]
    print(f"{'fail_ratio':58s} {ratio:>16.6g} -   "
          f"({outcome['failed']} failed of {outcome['attempted']} attempted)")


def run_once(args) -> int:
    if not (ROOT / "src" / "jordanian" / "cli.py").is_file():
        print(f"error: no program: {ROOT / 'src' / 'jordanian'} is missing",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    key = "per_layer" if args.trace else "end_to_end"
    spec = {entry["name"]: entry for entry in bench[key]}
    size = "smoke" if args.smoke else "full"
    env = environment()
    expected = load_expected(args.workload, args.seed, size,
                             args.corrupt_expectation)
    try:
        if args.trace:
            outcome = measure_layers(args.workload, args.seed, size, expected)
        else:
            outcome = measure(args.workload, args.seed, args.seconds, size,
                              expected)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_report(args.workload, outcome, spec, env)
    result = {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": outcome["metrics"][name],
                           "unit": entry["unit"]}
                    for name, entry in spec.items()},
    }
    print(json.dumps(result))
    return 0


# -- repeat mode ------------------------------------------------------------------

def run_repeat(args) -> int:
    """Run the benchmark ``--repeat`` times per workload as separate
    commands, rotating the workload order each round, and print the median,
    quartiles and spread of every metric per workload."""
    chosen = list(workloads.WORKLOADS)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {e["name"]: e.get("bound") for e in bench["end_to_end"]}
    values: dict[str, dict[str, list[float]]] = {w: {} for w in chosen}
    env = environment()
    print(f"# repeat {args.repeat}  env {json.dumps(env)}")
    for r in range(args.repeat):
        order = chosen[r % len(chosen):] + chosen[:r % len(chosen)]
        for workload in order:
            seed = args.seed + r
            cmd = [sys.executable, str(HERE / "run.py"), "--workload",
                   workload, "--seed", str(seed), "--seconds",
                   str(args.seconds), "--trace", "0"]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=ROOT, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            line = {k: round(v["value"], 4)
                    for k, v in result["metrics"].items()}
            print(f"# {workload} seed {seed} correct {result['correct']} "
                  f"{json.dumps(line)}", flush=True)
            for name, entry in result["metrics"].items():
                values[workload].setdefault(name, []).append(entry["value"])
    print(f"{'workload':15s} {'metric':12s} {'median':>11s} {'q1':>11s} "
          f"{'q3':>11s} {'spread':>7s} {'bound':>6s}")
    for workload, per_metric in values.items():
        for name, vals in per_metric.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            print(f"{workload:15s} {name:12s} {med:11.5g} {q1:11.5g} "
                  f"{q3:11.5g} {spread:7.3f} {bounds[name]:6.2f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (max-j 1, 50 queries) for tests")
    parser.add_argument("--corrupt-expectation", action="store_true",
                        help="self-test: alter one recorded expectation, so "
                             "the run must report a failure")
    parser.add_argument("--repeat", type=int, default=0,
                        help="run every workload N times; print quartiles")
    args = parser.parse_args(argv)
    if args.repeat:
        return run_repeat(args)
    if args.workload is None:
        parser.error("--workload is required")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
