"""Smoke tests of the benchmark at its tiny size (max-j 1, 50 queries).

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd,
                          timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metric_lines(proc, entries) -> None:
    """Every metric is printed by name with its unit, and is in the JSON."""
    result = result_of(proc)
    assert set(result["metrics"]) == {e["name"] for e in entries}
    lines = proc.stdout.splitlines()[:-1]
    for entry in entries:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
        assert any(line.split()[:1] == [entry["name"]]
                   and line.split()[2] == entry["unit"] for line in lines), \
            entry["name"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    proc = run("--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", "0", "--smoke")
    assert_metric_lines(proc, SPEC["end_to_end"])
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "fail_ratio" in proc.stdout


def test_traced_run_prints_layer_metrics_and_counts_checks():
    proc = run("--workload", "verify-pairs", "--seed", "1", "--seconds", "1",
               "--trace", "1", "--smoke")
    assert_metric_lines(proc, SPEC["per_layer"])
    result = result_of(proc)
    assert result["correct"]
    expected = json.loads((BENCH / "expected.json").read_text())
    checks = sum(s["checks"] for s in
                 expected["verify"]["verify-pairs"]["smoke"].values())
    assert result["metrics"]["report.add.calls"]["value"] == checks


def worker_layers(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(ROOT), workload, "2",
         "smoke", "trace"], capture_output=True, text=True, cwd=ROOT,
        timeout=170, env={"PYTHONHASHSEED": "0", "PATH": ""})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])["layers"]


@pytest.mark.parametrize("workload", ["verify-modules", "queries"])
def test_traced_counts_repeat_exactly(workload):
    first, second = worker_layers(workload), worker_layers(workload)
    counts = [name for name in first
              if name.endswith((".calls", ".distinct", ".products"))]
    assert counts
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


@pytest.mark.parametrize("workload", ["verify-pairs", "queries"])
def test_corrupted_expectation_counts_as_failure(workload):
    proc = run("--workload", workload, "--seed", "0", "--seconds", "1",
               "--trace", "0", "--smoke", "--corrupt-expectation")
    result = result_of(proc)
    assert not result["correct"]
    assert 1 <= result["failed"] <= result["attempted"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "queries", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_query_stream_is_seeded():
    a = workloads.query_stream(5, 200)
    assert a == workloads.query_stream(5, 200)
    assert a != workloads.query_stream(6, 200)
    universe = {" ".join(argv) for argv in workloads.all_requests()}
    assert all(" ".join(argv) in universe for _, argv in a)


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
