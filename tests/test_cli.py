"""End-to-end tests for the command-line interface.

Every test drives ``main()`` directly with an argv list and inspects the
exit code plus captured stdout/stderr, so the full argparse wiring, the
negative-value preprocessing, and the output formatting are all exercised
exactly as a shell invocation would.
"""

import argparse
import contextlib
import functools
import gc
import hashlib
import io
import json
import re
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from alpha_oracle import (alpha_entry, racah_cgc, uh_cgc_bra_sum,
                          uh_cgc_sum)
from conftest import examples
from jordanian import cli, coupling, irreps, serialize
from jordanian.cli import _merge_negative_values, build_parser, main
from jordanian.coupling import coupled_spins
from jordanian.halfint import HalfInt, half, weight_range
from jordanian.hpoly import HPoly
from jordanian.irreps import irrep
from jordanian.polymatrix import PolyMatrix
from jordanian.radical import RadScalar
from jordanian.report import Check, CheckBlock, Report
from jordanian.serialize import (matrix_from_json, matrix_to_json,
                                 scalar_from_json, scalar_to_json)
from jordanian.tensorops import rank1_generators


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- irrep ----------------------------------------------------------------------


def test_irrep_pretty_default_generators(capsys):
    code, out, err = run(capsys, "irrep", "--j", "1/2")
    assert code == 0
    assert err == ""
    assert "spin 1/2 module, dimension 2, weights 1/2 -1/2" in out
    for name in ("X =", "Y =", "H ="):
        assert name in out


def test_irrep_single_generator(capsys):
    code, out, err = run(capsys, "irrep", "--j", "1", "--gen", "casimir")
    assert code == 0
    assert "casimir =" in out
    # spin-1 quadratic invariant acts as the scalar 2
    assert "(2)" in out
    assert "X =" not in out


def test_irrep_json_round_trip(capsys):
    code, out, err = run(capsys, "irrep", "--j", "3/2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["j"] == "3/2"
    assert payload["dim"] == 4
    assert payload["weights"] == ["3/2", "1/2", "-1/2", "-3/2"]
    assert set(payload["matrices"]) == {"X", "Y", "H"}
    rep = irrep(half(3, 2))
    assert matrix_from_json(payload["matrices"]["X"]) == rep.x
    assert matrix_from_json(payload["matrices"]["Y"]) == rep.y
    assert matrix_from_json(payload["matrices"]["H"]) == rep.hm


def test_irrep_csv_shape(capsys):
    code, out, err = run(capsys, "irrep", "--j", "1/2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "matrix,row,col,entry"
    # three generators, four entries each
    assert len(lines) == 1 + 3 * 4
    assert "H,0,0,(1)" in lines


def test_irrep_h_eval_reaches_classical_limit(capsys):
    code, out, err = run(capsys, "irrep", "--j", "1", "--gen", "Y",
                         "--h-eval", "0")
    assert code == 0
    # the deformed correction vanishes at h = 0, leaving the classical entries
    assert "sqrt(2)" in out
    assert "h^2" not in out


def test_irrep_h_eval_keeps_deformation(capsys):
    code, out, err = run(capsys, "irrep", "--j", "1", "--gen", "Y",
                         "--h-eval", "2")
    assert code == 0
    assert "h" not in out.split("Y =", 1)[1]  # numbers only after evaluation


# -- alpha ----------------------------------------------------------------------


def test_alpha_single_value_with_negative_weight(capsys):
    code, out, err = run(capsys, "alpha", "--j1", "1/2", "--j2", "1/2",
                         "--k1", "1/2", "--k2", "1/2",
                         "--m1", "1/2", "--m2", "-1/2")
    assert code == 0
    assert out.strip() == "alpha[1/2,1/2; 1/2,-1/2] = -(1/2)*h"


def test_alpha_single_value_csv(capsys):
    code, out, err = run(capsys, "alpha", "--j1", "1/2", "--j2", "1/2",
                         "--k1", "1/2", "--k2", "1/2",
                         "--m1", "1/2", "--m2", "-1/2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k1,k2,m1,m2,value"
    assert lines[1] == "1/2,1/2,1/2,-1/2,-(1/2)*h"


def test_alpha_full_table(capsys):
    code, out, err = run(capsys, "alpha", "--j1", "1/2", "--j2", "1/2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "alpha table for the pair (1/2, 1/2); 9 nonzero entries"
    assert "alpha[1/2,1/2; -1/2,-1/2] = (1/4)*h^2" in lines
    # four diagonal entries are exactly 1
    assert sum(1 for line in lines if line.endswith("= (1)")) == 4


def test_alpha_full_table_json(capsys):
    code, out, err = run(capsys, "alpha", "--j1", "1/2", "--j2", "1/2",
                         "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["entries"]) == 9
    values = {(e["k1"], e["k2"], e["m1"], e["m2"]):
              scalar_from_json(e["value"]) for e in payload["entries"]}
    assert values[("1/2", "1/2", "-1/2", "-1/2")] == HPoly.h(
        2, RadScalar.from_rational(Fraction(1, 4)))


def test_single_alpha_request_reads_a_slice_of_k(capsys, monkeypatch):
    # One coefficient reads a 1x1 slice of K: K's HPoly view (1 296 cells
    # at 5/2 (x) 5/2) is not built.  Fresh memos, so that no other test's
    # reads show here.
    for memo in (coupling.alpha_table, coupling.cgc_matrix):
        monkeypatch.setattr(memo, "built", {})
    for fmt in ("pretty", "json", "csv"):
        code, out, _ = run(capsys, "alpha", "--j1", "5/2", "--j2", "5/2",
                           "--k1", "5/2", "--k2", "5/2", "--m1", "-5/2",
                           "--m2", "-5/2", "--format", fmt)
        assert code == 0
    top, bottom = half(5, 2), half(-5, 2)
    expected = alpha_entry(top, top, top, top, bottom, bottom)
    assert out.splitlines()[1] == f"5/2,5/2,-5/2,-5/2,{expected}"
    table = coupling.alpha_table(top, top)
    assert table.ket._view.rows is None
    assert table.value(top, top, bottom, bottom) == expected


def test_alpha_partial_indices_are_a_usage_error(capsys):
    code, out, err = run(capsys, "alpha", "--j1", "1/2", "--j2", "1/2",
                         "--k1", "1/2", "--m2", "-1/2")
    assert code == 2
    assert out == ""
    assert "missing --k2, --m1" in err


# -- cgc ------------------------------------------------------------------------


@pytest.mark.parametrize("spin_args", [
    ("--j", "5", "--m", "0"),
    ("--j", "1/2", "--m", "1/2"),
    ("--j", "1", "--m", "1/2"),
    ("--j", "5", "--classical"),
], ids=["triangle", "parity", "m-off-ladder", "classical-triangle"])
def test_cgc_without_coupling_channel_exits_2(capsys, spin_args):
    code, out, err = run(capsys, "cgc", "--j1", "1/2", "--j2", "1/2",
                         *spin_args)
    assert code == 2
    assert out == ""
    assert "error:" in err and "in 1/2 (x) 1/2" in err


@pytest.mark.parametrize("argv", [
    ("alpha", "--j1", "1/2", "--j2", "-1/2"),
    ("decompose", "--j1", "-1/2", "--j2", "1"),
    ("cgc", "--j1", "-1/2", "--j2", "1/2", "--j", "0", "--m", "0"),
    ("cgc", "--j1", "-1/2", "--j2", "1/2", "--j", "0", "--classical"),
    ("cgc", "--j1", "1/2", "--j2", "1/2", "--j", "-1", "--classical"),
    ("verify", "--suite", "uh-algebra", "--max-j", "-1"),
    ("verify", "--suite", "coupling", "--max-j", "-1/2"),
], ids=["alpha", "decompose", "cgc", "cgc-classical", "cgc-classical-j",
        "verify-uh-algebra", "verify-coupling"])
def test_negative_spin_exits_2(capsys, argv):
    bad = next(t for t in argv if t[0] == "-" and t[1].isdigit())
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"error: spin label must be nonnegative, got {bad}\n" in err


@pytest.mark.parametrize("k1", ["1/2", "5"], ids=["parity", "beyond-top"])
def test_classical_cgc_rejects_weight_off_the_ladder(capsys, k1):
    code, out, err = run(capsys, "cgc", "--j1", "1", "--j2", "1", "--j", "1",
                         "--classical", "--k1", k1, "--k2", "0")
    assert code == 2
    assert out == ""
    assert f"error: weight {k1} does not belong to the spin-1 ladder" in err


@pytest.mark.parametrize("argv, message", [
    (("--m", "0", "--k1", "1/2"), "--k1 and --k2 go together; missing --k2"),
    (("--m", "0", "--k2", "1/2"), "--k1 and --k2 go together; missing --k1"),
    (("--classical", "--k2", "1/2"),
     "--k1 and --k2 go together; missing --k1"),
    (("--classical", "--m", "0"), "--m applies to deformed coefficients only"),
], ids=["k1-only", "k2-only", "classical-k2-only", "classical-m"])
def test_cgc_ignored_options_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, "cgc", "--j1", "1/2", "--j2", "1/2",
                         "--j", "0", *argv)
    assert code == 2
    assert out == ""
    assert f"error: {message}" in err


def test_cgc_requires_m_for_deformed(capsys):
    code, out, err = run(capsys, "cgc", "--j1", "1/2", "--j2", "1/2",
                         "--j", "0")
    assert code == 2
    assert "error:" in err
    assert "--m is required" in err


def test_cgc_singlet_single_cells(capsys):
    code, out, err = run(capsys, "cgc", "--j1", "1/2", "--j2", "1/2",
                         "--j", "0", "--m", "0",
                         "--k1", "1/2", "--k2", "1/2")
    assert code == 0
    assert "ket coupling coefficients (1/2, 1/2) -> 0, m = 0" in out
    assert "[1/2, 1/2] = -(1/2)*sqrt(2)*h" in out

    code, out, err = run(capsys, "cgc", "--j1", "1/2", "--j2", "1/2",
                         "--j", "0", "--m", "0",
                         "--k1", "1/2", "--k2", "-1/2")
    assert code == 0
    assert "[1/2, -1/2] = (1/2)*sqrt(2)" in out


def test_cgc_classical_table(capsys):
    code, out, err = run(capsys, "cgc", "--j1", "1/2", "--j2", "1/2",
                         "--j", "1", "--classical")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ("classical coupling coefficients (1/2, 1/2) -> 1, "
                        "m = k1+k2")
    assert len(lines) == 5  # header + four nonzero coefficients
    assert "[1/2, 1/2] = (1)" in lines
    assert "[1/2, -1/2] = (1/2)*sqrt(2)" in lines


def test_cgc_bra_json(capsys):
    code, out, err = run(capsys, "cgc", "--j1", "1/2", "--j2", "1/2",
                         "--j", "1", "--m", "1", "--bra", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "bra"
    assert payload["m"] == "1"
    # bra coefficients live on k1 + k2 <= m
    for entry in payload["entries"]:
        k1 = HalfInt.parse(entry["k1"])
        k2 = HalfInt.parse(entry["k2"])
        assert k1 + k2 <= half(1)
        assert scalar_from_json(entry["value"])  # stored entries are nonzero


def _single_cgc(capsys, j1, j2, j, k1, k2, *kind):
    code, out, err = run(capsys, "cgc", "--j1", str(j1), "--j2", str(j2),
                         "--j", str(j), "--k1", str(k1), "--k2", str(k2),
                         *kind, "--format", "json")
    assert code == 0, err
    (entry,) = json.loads(out)["entries"]
    assert (entry["k1"], entry["k2"]) == (str(k1), str(k2))
    return scalar_from_json(entry["value"])


SWEEP_SPINS = [half(t, 2) for t in range(4)]


@pytest.mark.parametrize("j1, j2", [(a, b) for a in SWEEP_SPINS
                                    for b in SWEEP_SPINS], ids=str)
def test_single_cgc_requests_match_the_oracles(capsys, j1, j2):
    # Every single-coefficient request of a pair, end to end: ket and bra
    # (--k1/--k2 with --m, --bra) against the channel sums, classical
    # against the Racah sum, including the zero at m = k1 + k2 outside j.
    outside = 0
    for j in coupled_spins(j1, j2):
        for k1 in weight_range(j1):
            for k2 in weight_range(j2):
                def request(*kind):
                    return _single_cgc(capsys, j1, j2, j, k1, k2, *kind)

                classical = racah_cgc(j1, j2, j, k1, k2)
                assert request("--classical") == HPoly.constant(classical)
                if abs((k1 + k2).twice) > j.twice:
                    outside += 1
                    assert not classical
                for m in weight_range(j):
                    assert request("--m", str(m)) \
                        == uh_cgc_sum(j1, j2, j, k1, k2, m)
                    assert request("--m", str(m), "--bra") \
                        == uh_cgc_bra_sum(j1, j2, j, k1, k2, m)
    assert outside or min(j1, j2) == 0


def test_cgc_requests_read_slices_of_the_pair_tables(capsys, monkeypatch):
    # Ket, bra and classical requests read slices of K C, C^T B and C:
    # none of them builds the HPoly view of a whole memoized table.  Fresh
    # memos, so that no other test's reads show here.
    for memo in (coupling.alpha_table, coupling.cgc_matrix):
        monkeypatch.setattr(memo, "built", {})
    pair = ("--j1", "3/2", "--j2", "1", "--j", "3/2")
    for kind in (("--m", "1/2"), ("--m", "1/2", "--bra"), ("--classical",)):
        for single in ((), ("--k1", "1/2", "--k2", "0")):
            for fmt in ("pretty", "json", "csv"):
                assert run(capsys, "cgc", *pair, *kind, *single,
                           "--format", fmt)[0] == 0
    table = coupling.alpha_table(half(3, 2), 1)
    assert {"coupled", "coupled_bras"} <= set(vars(table))
    assert coupling.cgc_matrix(half(3, 2), 1) is table.cgc
    for memo in (table.coupled, table.coupled_bras, table.cgc):
        assert memo._view.rows is None


# -- decompose ------------------------------------------------------------------


def test_decompose_pretty(capsys):
    code, out, err = run(capsys, "decompose", "--j1", "1", "--j2", "1/2")
    assert code == 0
    assert out.strip() == ("1 (x) 1/2 = 3/2 + 1/2   "
                           "(certified by the coupled Casimir)")


def test_decompose_json(capsys):
    code, out, err = run(capsys, "decompose", "--j1", "1", "--j2", "1",
                         "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["summands"] == [
        {"j": "2", "multiplicity": 1},
        {"j": "1", "multiplicity": 1},
        {"j": "0", "multiplicity": 1},
    ]


def test_decompose_csv(capsys):
    code, out, err = run(capsys, "decompose", "--j1", "1/2", "--j2", "1/2",
                         "--format", "csv")
    assert code == 0
    assert out.strip().splitlines() == ["j,multiplicity", "1,1", "0,1"]


# -- tensorop -------------------------------------------------------------------


def test_tensorop_fermion_pretty(capsys):
    code, out, err = run(capsys, "tensorop", "--realization", "fermion-a")
    assert code == 0
    assert "rank 1/2 family (fermion-a)" in out
    assert "t[1/2] =" in out
    assert "t[-1/2] =" in out


def test_tensorop_single_component_json(capsys):
    code, out, err = run(capsys, "tensorop", "--realization", "rank1",
                         "--j", "1/2", "--m", "0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["realization"] == "rank1"
    assert payload["rank"] == "1"
    assert payload["j"] == "1/2"
    assert list(payload["components"]) == ["0"]
    recovered = matrix_from_json(payload["components"]["0"])
    assert recovered == rank1_generators(half(1, 2)).component(
        HalfInt.from_twice(0))


def test_tensorop_negative_component(capsys):
    code, out, err = run(capsys, "tensorop", "--realization", "rank1",
                         "--j", "1/2", "--m", "-1")
    assert code == 0
    assert "t[-1] =" in out
    assert "-(3/2)*h" in out


def test_tensorop_missing_j_is_usage_error(capsys):
    code, out, err = run(capsys, "tensorop", "--realization", "rank1")
    assert code == 2
    assert "error:" in err
    assert "--j is required for realization 'rank1'" in err


@pytest.mark.parametrize("command", ["tensorop", "wigner-eckart"])
@pytest.mark.parametrize("realization", ["fermion-a", "fermion-b"])
def test_fermion_realization_rejects_j(capsys, command, realization):
    code, out, err = run(capsys, command, "--realization", realization,
                         "--j", "1", "--format", "json")
    assert code == 2
    assert out == ""
    assert f"--j does not apply to realization {realization!r}" in err


def test_tensorop_lowering_needs_positive_spin(capsys):
    code, out, err = run(capsys, "tensorop", "--realization", "boson-lowering",
                         "--j", "0")
    assert code == 2
    assert "error:" in err


# -- wigner-eckart --------------------------------------------------------------


def test_wigner_eckart_pretty_prints_reduced_element(capsys):
    code, out, err = run(capsys, "wigner-eckart", "--realization", "fermion-a")
    assert code == 0
    assert "I(1/2 1/2 0) = -(1)*sqrt(2)" in out
    # non-verbose output keeps headers but hides passing check lines
    assert "failed" in out
    assert "\n  PASS" not in out


def test_wigner_eckart_verbose_shows_checks(capsys):
    code, out, err = run(capsys, "wigner-eckart", "--realization", "identity",
                         "--j", "1", "--verbose")
    assert code == 0
    assert "PASS" in out
    assert "I(0 1 1) = (1)" in out


def test_wigner_eckart_json(capsys):
    code, out, err = run(capsys, "wigner-eckart", "--realization",
                         "boson-raising", "--j", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["j"] == "1"
    assert len(payload["reports"]) == 3
    for report in payload["reports"]:
        assert report["counts"]["fail"] == 0


@pytest.mark.parametrize("fmt", ["pretty", "json", "csv"])
def test_wigner_eckart_selection_rule_is_a_usage_error(capsys, fmt):
    # No rank-1 channel joins spin 0 to spin 0: every format exits 2 with
    # the same message and prints no report.
    code, out, err = run(capsys, "wigner-eckart", "--realization", "rank1",
                         "--j", "0", "--format", fmt)
    assert code == 2
    assert out == ""
    assert err == "error: rank 1 cannot connect spin 0 to spin 0\n"


# -- verify ---------------------------------------------------------------------


def test_verify_single_suite(capsys):
    code, out, err = run(capsys, "verify", "--max-j", "1",
                         "--suite", "uh-algebra")
    assert code == 0
    assert "=== suite: uh-algebra" in out
    assert "all checks passed" in out
    assert " 0 failed" in out
    assert "=== suite: coupling" not in out


@pytest.mark.parametrize("fmt", ["pretty", "json", "csv"])
def test_coupling_suite_below_its_smallest_spin_exits_2(capsys, fmt):
    # The coupling suite pairs spins from 1/2 up: at --max-j 0 it has no
    # pair to check, which must not read as "all checks passed".
    code, out, err = run(capsys, "verify", "--suite", "coupling",
                         "--max-j", "0", "--format", fmt)
    assert code == 2
    assert out == ""
    assert "--max-j 1/2" in err


def test_verify_all_suites_quick(capsys):
    code, out, err = run(capsys, "verify", "--max-j", "1/2")
    assert code == 0
    for name in ("uh-algebra", "coupling", "tensor-ops", "wigner-eckart"):
        assert f"=== suite: {name}" in out
    assert "all checks passed" in out


def test_verify_csv(capsys):
    code, out, err = run(capsys, "verify", "--max-j", "1/2",
                         "--suite", "coupling", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "suite,report,check,status,detail"
    assert all(line.split(",")[0] == "coupling" for line in lines[1:])
    assert ",fail," not in out


def _strip_elapsed(node):
    if isinstance(node, dict):
        return {k: _strip_elapsed(v) for k, v in node.items()
                if k != "elapsed_s"}
    if isinstance(node, list):
        return [_strip_elapsed(v) for v in node]
    return node


def test_verify_json_is_deterministic(capsys):
    argv = ("verify", "--max-j", "1/2", "--suite", "coupling",
            "--format", "json")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    first = _strip_elapsed(json.loads(out1))
    second = _strip_elapsed(json.loads(out2))
    assert first == second
    assert first["passed"] is True
    assert first["max_j"] == "1/2"


# SHA-256 of `verify --max-j 3/2 --format json` with every elapsed_s removed
# and the rest re-serialized by json.dumps: 97 reports, 3 307 checks and 14
# NOTE lines.  Any change to a check name, order, detail or count, or to a
# NOTE line, changes it.
VERIFY_3_2_DIGEST = \
    "60cd74d68ca1716fa2b6da22d70c709745e7241b77722f619f932aa4736d7946"


def test_verify_json_matches_recorded_digest(capsys):
    code, out, _ = run(capsys, "verify", "--max-j", "3/2", "--format", "json")
    assert code == 0
    payload = _strip_elapsed(json.loads(out))
    assert len(payload["suites"]) == 97
    assert sum(len(s["notes"]) for s in payload["suites"]) == 14
    digest = hashlib.sha256(json.dumps(payload).encode()).hexdigest()
    assert digest == VERIFY_3_2_DIGEST


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _mask_timings(text):
    return re.sub(r", \d+\.\d\ds\)", ", N.NNs)", text)


# 16-hex SHA-256 prefixes of `verify --max-j 1` as text (every report's
# ", N.NNs)" timing masked) and as CSV: 76, 1 255 and 1 174 lines.
VERIFY_1_DIGESTS = {
    ("pretty",): "555d1bdb5eb61c5f",
    ("pretty", "--verbose"): "01b4a3c631007971",
    ("csv",): "076bb67fb5be9d95",
}


@pytest.mark.parametrize("fmt_and_flags", sorted(VERIFY_1_DIGESTS))
def test_verify_text_and_csv_match_recorded_digests(capsys, fmt_and_flags):
    fmt, *flags = fmt_and_flags
    code, out, _ = run(capsys, "verify", "--max-j", "1", "--format", fmt,
                       *flags)
    assert code == 0
    assert _digest(_mask_timings(out)) == VERIFY_1_DIGESTS[fmt_and_flags]


# 16-hex SHA-256 prefixes of `wigner-eckart` per realization (`--j 1` where
# one is needed) and format; JSON with every elapsed_s removed and the rest
# re-serialized by json.dumps.
WIGNER_ECKART_DIGESTS = {
    ("fermion-a", "pretty"): "7b8833aed348568b",
    ("fermion-a", "json"): "e00f419b5d436702",
    ("fermion-a", "csv"): "755144e0f01d4fe8",
    ("fermion-b", "pretty"): "331b14fce1d5ea7c",
    ("fermion-b", "json"): "905ad90fed85601a",
    ("fermion-b", "csv"): "ed529645aa18aa8a",
    ("boson-raising", "pretty"): "7404951e61f8d577",
    ("boson-raising", "json"): "d34fc9b8b32f5a65",
    ("boson-raising", "csv"): "d75e2a7b446f69e3",
    ("boson-lowering", "pretty"): "5fd998615887bd02",
    ("boson-lowering", "json"): "5c2eb80ee545614a",
    ("boson-lowering", "csv"): "af41cf0ba3148a82",
    ("rank1", "pretty"): "07472c2693038d4d",
    ("rank1", "json"): "a2af1bd5603d407c",
    ("rank1", "csv"): "ee835e6fd816fd31",
    ("identity", "pretty"): "eff2acb6578ad1c1",
    ("identity", "json"): "f07545d47ce7acf1",
    ("identity", "csv"): "ae23afdcf0dffb39",
}


@pytest.mark.parametrize("realization,fmt", list(WIGNER_ECKART_DIGESTS))
def test_wigner_eckart_matches_recorded_digests(capsys, realization, fmt):
    j_args = () if realization.startswith("fermion") else ("--j", "1")
    code, out, _ = run(capsys, "wigner-eckart", "--realization", realization,
                       *j_args, "--format", fmt)
    assert code == 0
    if fmt == "json":
        out = json.dumps(_strip_elapsed(json.loads(out)))
    assert _digest(out) == WIGNER_ECKART_DIGESTS[realization, fmt]


# -- output plumbing ------------------------------------------------------------


def test_out_writes_file_and_keeps_stdout_quiet(capsys, tmp_path):
    target = tmp_path / "decomposition.txt"
    code, out, err = run(capsys, "decompose", "--j1", "1/2", "--j2", "1/2",
                         "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8") == (
        "1/2 (x) 1/2 = 1 + 0   (certified by the coupled Casimir)\n")


def test_unwritable_out_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x.txt"
    code, out, err = run(capsys, "decompose", "--j1", "1", "--j2", "1",
                         "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not target.exists()


def test_format_env_variable_sets_default(capsys, monkeypatch):
    monkeypatch.setenv("JORDANIAN_FORMAT", "json")
    code, out, err = run(capsys, "decompose", "--j1", "1/2", "--j2", "1/2")
    assert code == 0
    assert json.loads(out)["summands"][0]["j"] == "1"


def test_format_env_variable_ignores_unknown_value(capsys, monkeypatch):
    monkeypatch.setenv("JORDANIAN_FORMAT", "yaml")
    code, out, err = run(capsys, "decompose", "--j1", "1/2", "--j2", "1/2")
    assert code == 0
    assert "(x)" in out  # fell back to the pretty format


def test_explicit_format_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("JORDANIAN_FORMAT", "json")
    code, out, err = run(capsys, "decompose", "--j1", "1/2", "--j2", "1/2",
                         "--format", "csv")
    assert code == 0
    assert out.startswith("j,multiplicity")


# -- argument handling ----------------------------------------------------------


def test_bad_spin_is_rejected_by_the_parser(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["irrep", "--j", "0.3"])
    assert excinfo.value.code == 2
    assert "not a half-integer" in capsys.readouterr().err


def test_missing_command_is_rejected(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_unknown_realization_is_rejected(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["tensorop", "--realization", "quark"])
    assert excinfo.value.code == 2


def test_merge_negative_values_targets_value_options_only():
    merged = _merge_negative_values(
        ["--m2", "-1/2", "--verbose", "-1/2", "--max-j", "-2", "--m", "x"])
    assert merged == ["--m2=-1/2", "--verbose", "-1/2", "--max-j=-2",
                      "--m", "x"]


def test_an_abbreviated_option_takes_a_negative_weight(capsys):
    # The option table refuses an abbreviated option (--form), so argparse
    # parses this request, and takes --m1 -1/2 only once it is merged into
    # --m1=-1/2: the merge stays for such requests.
    argv = ["alpha", "--j1", "1/2", "--j2", "1/2", "--k1", "1/2", "--k2",
            "1/2", "--m1", "-1/2", "--m2", "-1/2"]
    full = _outcome(capsys, [*argv, "--format", "csv"])
    assert full[0] == 0
    assert _outcome(capsys, [*argv, "--form", "csv"]) == full


# -- one parser per process -----------------------------------------------------


def test_main_builds_its_parser_once(capsys, monkeypatch):
    built = []

    def counting_build_parser():
        built.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._kept_parser.cache_clear()
    for _ in range(2):
        assert run(capsys, "decompose", "--j1", "1/2", "--j2", "1/2")[0] == 0
    assert len(built) == 1


def test_format_env_variable_is_read_on_every_call(capsys, monkeypatch):
    run(capsys, "decompose", "--j1", "1/2", "--j2", "1/2")
    outputs = []
    for value in ("json", None, "yaml"):
        if value is None:
            monkeypatch.delenv("JORDANIAN_FORMAT", raising=False)
        else:
            monkeypatch.setenv("JORDANIAN_FORMAT", value)
        outputs.append(run(capsys, "decompose", "--j1", "1/2", "--j2",
                           "1/2")[1])
    assert json.loads(outputs[0])["summands"][0]["j"] == "1"
    pretty = "1/2 (x) 1/2 = 1 + 0   (certified by the coupled Casimir)\n"
    assert outputs[1:] == [pretty, pretty]


def test_rebound_handler_runs(capsys, monkeypatch):
    run(capsys, "decompose", "--j1", "1/2", "--j2", "1/2")
    seen = []
    monkeypatch.setattr(cli, "_cmd_decompose",
                        lambda args: seen.append(args.j1) or 0)
    assert run(capsys, "decompose", "--j1", "1", "--j2", "1/2") == (0, "", "")
    assert seen == [half(1)]


def test_usage_error_leaves_the_kept_parser_intact(capsys):
    argv = ["cgc", "--j1", "1", "--j2", "1/2", "--j", "1/2", "--m", "-1/2",
            "--bra"]
    cli._kept_parser.cache_clear()
    alone = run(capsys, *argv)
    with pytest.raises(SystemExit) as excinfo:
        main(["cgc", "--format", "json", "--j1", "1", "--j2", "1/2", "--j",
              "1/2", "--classical", "--bra"])
    assert excinfo.value.code == 2
    capsys.readouterr()
    assert run(capsys, *argv) == alone


# -- the subcommand parse path ------------------------------------------------------


def _outcome(capsys, argv):
    """main(argv) as (exit code, stdout, stderr)."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


PARSE_CASES = [
    *[["irrep", "--j", "1", "--format", fmt] for fmt in cli.FORMATS],
    ["irrep", "--j", "3/2", "--gen", "expmHX", "--h-eval", "-1/3"],
    ["irrep", "--j", "1/2", "--gen", "casimir", "--format", "json"],
    *[["alpha", "--j1", "1", "--j2", "1/2", "--k1", "-1", "--k2", "1/2",
       "--m1", "0", "--m2", "-1/2", "--format", fmt] for fmt in cli.FORMATS],
    ["alpha", "--format", "csv", "--j2", "1/2", "--j1", "1/2"],
    ["cgc", "--j1", "1", "--j2", "1/2", "--j", "1/2", "--m", "-1/2", "--bra"],
    ["cgc", "--j1", "1", "--j2", "1/2", "--j", "1/2", "--m", "-1/2"],
    ["cgc", "--j1", "3/2", "--j2", "1", "--j", "3/2", "--m", "-1/2",
     "--k1", "-3/2", "--k2", "-1"],
    ["cgc", "--j1", "1", "--j2", "1/2", "--j", "1/2", "--m", "-x"],  # not a spin
    ["cgc", "--j1", "1", "--j2", "1/2", "--j", "3/2", "--m", "-3/2",
     "--k1", "-1", "--k2", "-1/2", "--format", "json"],
    ["cgc", "--j1", "1", "--j2", "1", "--j", "0", "--classical", "--format",
     "csv"],
    ["decompose", "--j1", "1/2", "--j2", "3/2", "--format", "json"],
    ["tensorop", "--realization", "boson-raising", "--j", "1/2", "--m",
     "-1/2", "--format", "csv"],
    ["tensorop", "--realization", "fermion-b"],
    ["wigner-eckart", "--realization", "rank1", "--j", "1", "--verbose"],
    ["verify", "--suite", "uh-algebra", "--max-j", "1/2", "--format", "csv"],
    ["irrep", "--j", "-1"],                                  # handler error
    ["irrep", "--j", "0.3"],                                 # bad spin
    ["alpha", "--j1", "1", "--j2", "x/2"],                   # bad spin
    ["irrep", "--j", "1", "--bogus", "2"],                   # unknown option
    ["irrep", "--j", "1", "extra"],                          # leftover
    ["decompose", "--j1", "1", "--j2", "1", "1/2", "--x"],   # leftovers
    ["irrep", "--j", "1", "--h", "1"],                       # ambiguous
    ["irrep", "--j", "1", "--form", "csv"],                  # abbreviation
    ["cgc", "--j1", "1", "--j2", "1"],                       # missing --j
    ["verify", "--suite", "nope"],                           # bad choice
    ["tensorop", "--realization", "quark"],
    ["cgc", "--j1", "1", "--j2", "1/2", "--j", "1/2", "--classical", "--bra"],
    ["frobnicate", "--j", "1"],                              # unknown command
    ["--format", "json", "irrep", "--j", "1"],               # option first
    ["IRREP", "--j", "1"],
    [],
    ["--help"],
    ["-h"],
    *[[command, "--help"] for command in
      ("irrep", "alpha", "cgc", "decompose", "tensorop", "wigner-eckart",
       "verify")],
    ["irrep", "--j", "1", "-h", "--bogus"],
    ["irrep", "--j", "1", "--gen", "X", "--j", "1/2"],       # repeated option
    ["cgc", "--j1", "1", "--j2", "1/2", "--j", "1/2", "--m=-1/2"],
    ["cgc", "--j1", "1", "--j2", "1/2", "--j", "1/2", "--m", "1/2",
     "--bra=1"],                                             # = on a flag
    ["decompose", "--j1", "1", "--j2", "1", "--out", "-x"],  # value like -x
    ["decompose", "--j1", "1", "--j2", "1", "--out="],       # empty --out
]


@pytest.mark.parametrize("argv", PARSE_CASES, ids=" ".join)
def test_subcommand_parse_matches_the_full_parser(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("JORDANIAN_FORMAT", raising=False)
    fast = _outcome(capsys, argv)
    # With no command parsers, main parses every argv with the full parser,
    # as build_parser().parse_args does.
    monkeypatch.setattr(cli, "_kept_parser", lambda: (build_parser(), {}))
    assert _outcome(capsys, argv) == fast


def test_leftover_arguments_are_worded_by_the_full_parser(capsys):
    code, out, err = _outcome(capsys, ["irrep", "--j", "1", "extra"])
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == \
        "jordanian: error: unrecognized arguments: extra"


def test_kept_parser_maps_every_command_to_its_subparser():
    cli._kept_parser.cache_clear()
    parser, commands = cli._kept_parser()
    assert list(commands) == ["irrep", "alpha", "cgc", "decompose",
                              "tensorop", "wigner-eckart", "verify"]
    assert all(p.prog == f"jordanian {name}" for name, p in commands.items())
    assert cli._kept_parser() == (parser, commands)


# -- the option table ---------------------------------------------------------------


def _argparse_vars(command, name, argv):
    """vars() of the namespace the command's parser gives argv, or None
    when it exits (usage error or help) or leaves arguments over."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            args, rest = command.parse_known_args(
                argv, argparse.Namespace(command=name))
        except SystemExit:
            return None
    return None if rest else vars(args)


_GOOD_VALUES = {cli._spin: ["0", "1/2", "1", "3/2", "-1/2", "-1", "-3/2"],
                cli._rational: ["0", "1/2", "-1/3"], None: ["o.txt", ""]}
_BAD_VALUES = ["x", "0.3", "", "1/0", "-x", "--", "-", "-0.5", "a=b", "yaml",
               "quark", "nope", "casimir", "json"]
# Abbreviations, help, options of other commands, unknown options and bare
# values.
_STRAY_TOKENS = ["--form", "--realiz", "--verb", "--h", "--gen", "--max",
                 "-h", "--help", "--classical", "--bra", "--bogus", "-x",
                 "extra", "1/2"]


@st.composite
def _command_argvs(draw):
    """A command name and an argv made from its own option strings, in the
    --opt v and --opt=v forms, with good and bad values: required options
    mostly present, other options repeated or left out, flags with and
    without =, and stray tokens mixed in."""
    _, commands = cli._kept_parser()
    name = draw(st.sampled_from(list(commands)))
    command = commands[name]
    actions = [a for a in command._actions
               if not isinstance(a, argparse._HelpAction)]
    picked = [a for a in actions if a.required and draw(st.integers(0, 9))]
    picked += draw(st.lists(st.sampled_from(actions), max_size=5))
    tokens = []
    for action in picked:
        option = draw(st.sampled_from(action.option_strings))
        good = (list(action.choices) if action.choices
                else [] if action.nargs == 0 else _GOOD_VALUES[action.type])
        value = draw(st.sampled_from(
            good if good and draw(st.integers(0, 3)) else good + _BAD_VALUES))
        form = draw(st.sampled_from(["space", "eq", "bare"] if good
                                    else ["bare", "bare", "eq"]))
        tokens.append({"space": [option, value], "eq": [f"{option}={value}"],
                       "bare": [option]}[form])
    for token in draw(st.lists(st.sampled_from(_STRAY_TOKENS), max_size=2)):
        tokens.insert(draw(st.integers(0, len(tokens))),
                      [token, *draw(st.lists(st.sampled_from(_BAD_VALUES),
                                             max_size=1))])
    argv = _merge_negative_values([name, *(t for ts in tokens for t in ts)])
    return name, argv[1:]


@examples(100)
@given(_command_argvs())
@example(("cgc", ["--j1", "1", "--j2", "1", "--j", "1", "--classical",
                  "--bra"]))
@example(("irrep", ["--j", "1", "--form", "csv"]))
@example(("verify", ["--verbose=1"]))
@example(("irrep", ["--gen", "X"]))
@example(("verify", ["--suite", "nope"]))
@example(("decompose", ["--j1", "1", "--j2", "1", "--out=--"]))
def test_option_table_parses_as_argparse_or_refuses(case):
    name, argv = case
    command = cli._kept_parser()[1][name]
    args = cli._option_table(command).parse(name, argv)
    if args is not None:
        assert vars(args) == _argparse_vars(command, name, argv)


def _split_negative_values(argv):
    """argv with each --opt=-v that _merge_negative_values makes split back
    into --opt and -v."""
    out = []
    for token in argv:
        option, eq, value = token.partition("=")
        if eq and option in cli._VALUE_OPTIONS and cli._NEGATIVE_VALUE.match(value):
            out += [option, value]
        else:
            out.append(token)
    return out


@examples(100)
@given(_command_argvs())
@example(("cgc", ["--j1", "1", "--j2", "1/2", "--j", "1/2", "--m=-1/2"]))
@example(("cgc", ["--j1=1", "--j2", "1", "--j", "1", "--m=-1", "--k1=-1",
                  "--k2=0"]))
@example(("irrep", ["--j", "1", "--h-eval=-1/3", "--out", "-x"]))
def test_option_table_takes_negative_values_where_the_merge_would(case):
    # The table reads "--opt -1/2" itself, as argparse reads the merged
    # "--opt=-1/2", and refuses every other value that starts with "-".
    name, merged = case
    argv = _split_negative_values(merged)
    assert _merge_negative_values(argv) == merged
    command = cli._kept_parser()[1][name]
    table = cli._option_table(command)
    args = table.parse(name, argv)
    assert (args is None) == (table.parse(name, merged) is None)
    if args is not None:
        assert vars(args) == _argparse_vars(command, name, merged)


@pytest.mark.parametrize("argv", [
    ["--j1", "1", "--j2", "1/2", "--j", "1/2", "--m", "-x"],
    ["--j1", "1", "--j2", "1/2", "--j", "1/2", "--m", "-0.5"],
    ["--j1", "1", "--j2", "1/2", "--j", "1/2", "--m", "--"],
    ["--j1", "1", "--j2", "1/2", "--j", "1/2", "--m", "1/2", "--out", "-1"],
], ids=" ".join)
def test_option_table_refuses_other_values_that_start_with_a_dash(argv):
    command = cli._kept_parser()[1]["cgc"]
    assert cli._option_table(command).parse("cgc", argv) is None


def test_option_table_takes_every_request_that_exits_0(capsys, monkeypatch):
    # All but help requests and abbreviated options, which stay with
    # argparse.
    monkeypatch.delenv("JORDANIAN_FORMAT", raising=False)
    _, commands = cli._kept_parser()
    taken = 0
    for argv in PARSE_CASES:
        if (_outcome(capsys, argv)[0] != 0
                or not {"-h", "--help"}.isdisjoint(argv)):
            continue
        argv = _merge_negative_values(argv)
        command = commands[argv[0]]
        if not all(t.partition("=")[0] in command._option_string_actions
                   for t in argv[1:] if t.startswith("-")):
            continue
        args = cli._option_table(command).parse(argv[0], argv[1:])
        assert args is not None, argv
        assert vars(args) == _argparse_vars(command, argv[0], argv[1:])
        taken += 1
    assert taken > 0


def test_each_request_parses_to_its_own_namespace(capsys, monkeypatch):
    seen = []

    def mutating_handler(args):
        seen.append(dict(vars(args)))
        args.gen, args.h_eval, args.j = "Y", Fraction(1), half(7)
        vars(args).pop("out")
        return 0

    monkeypatch.delenv("JORDANIAN_FORMAT", raising=False)
    monkeypatch.setattr(cli, "_cmd_irrep", mutating_handler)
    for _ in range(2):
        assert run(capsys, "irrep", "--j", "1") == (0, "", "")
    assert seen[0] == seen[1] == {"command": "irrep", "j": half(1),
                                  "gen": None, "h_eval": None,
                                  "format": "pretty", "out": None}


def test_clearing_the_kept_parser_drops_its_tables(capsys, monkeypatch):
    argv = ["irrep", "--j", "1/2", "--gen", "Y", "--format", "csv"]
    cli._kept_parser.cache_clear()  # a parser that no other test has seen
    assert run(capsys, *argv)[0] == 0
    assert run(capsys, "cgc", "--j1", "1/2", "--j2", "1/2", "--j", "0",
               "--classical")[0] == 0
    commands = cli._kept_parser()[1]
    old = [weakref.ref(commands[name]) for name in ("irrep", "cgc")]
    del commands
    assert None not in map(cli._option_table, (ref() for ref in old))

    def narrower_parser():  # the same parser, with Y no longer a --gen choice
        parser = build_parser()
        commands = next(a.choices for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction))
        gen = commands["irrep"]._option_string_actions["--gen"]
        gen.choices = [c for c in gen.choices if c != "Y"]
        return parser

    monkeypatch.setattr(cli, "build_parser", narrower_parser)
    cli._kept_parser.cache_clear()
    try:
        code, out, err = _outcome(capsys, argv)
        assert (code, out) == (2, "")
        assert "invalid choice: 'Y'" in err
        gc.collect()  # the old parsers go, and with them their tables
        assert [ref() for ref in old] == [None, None]
    finally:
        cli._kept_parser.cache_clear()


# 16-hex SHA-256 prefixes of `jordanian --help` and of each subcommand's
# --help at 80 columns, recorded before the parser was kept between calls.
HELP_DIGESTS = {
    (): "87a8d3e6a7c270a0",
    ("irrep",): "07081f951897c9a6",
    ("alpha",): "f093eb85f3f27e86",
    ("cgc",): "3827c1d5ba0fa66e",
    ("decompose",): "922cf355a8cd98fd",
    ("tensorop",): "84863299f31100b8",
    ("wigner-eckart",): "eb6bae1d72f27b3a",
    ("verify",): "517b22d030b44af0",
}


@pytest.mark.parametrize("command", list(HELP_DIGESTS), ids=str)
def test_help_matches_recorded_digests(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as excinfo:
        main([*command, "--help"])
    assert excinfo.value.code == 0
    assert _digest(capsys.readouterr().out) == HELP_DIGESTS[command]


def test_verify_reports_a_failed_certification(monkeypatch):
    real = coupling.casimir_eigenvalue
    monkeypatch.setattr(coupling, "casimir_eigenvalue", lambda j: real(j) + 1)
    coupling._certified_decomposition.built.clear()
    report = cli._decompose_report(half(1, 2), half(1, 2))
    assert not report.ok
    assert report.failures()[0].detail.endswith("j=1, m=1")


# -- JSON writer ----------------------------------------------------------------


def _dumps(payload):
    return json.dumps(payload, indent=2, sort_keys=True)


@pytest.mark.parametrize("payload", [
    {}, [], "", 0, None, True, False, -7, 2 ** 70, 0.1, -2.5e-300,
    float("inf"), float("-inf"), float("nan"),
    {"b": [], "a": {}, "c": [{}, [[]], {"x": [1, [2, {"y": None}]]}]},
    {"flag": True, "one": 1, "zero": 0, "off": False},
    ("tuple", ["nested", ("deeper",)]),
    {"naïve": "ünïcödé ☃ \U0001d11e", "esc": "quote \" slash \\ tab \t\n\x00"},
    {"z": 1, "B": 2, "a": 3, "_": 4, "10": 5, "9": 6},
], ids=repr)
def test_json_writer_matches_json_dumps(payload):
    assert cli._json_text(payload) == _dumps(payload)


def test_json_writer_matches_json_dumps_on_the_verify_payload(capsys):
    code, out, _ = run(capsys, "verify", "--max-j", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert cli._json_text(payload) == _dumps(payload) == out.rstrip("\n")


@pytest.mark.parametrize("payload", [
    Fraction(1, 2), {"x": HalfInt.from_twice(1)}, [b"bytes"], {1, 2},
    {(1, 2): "tuple key"}, {1: "unsortable", None: "keys"},
], ids=repr)
def test_json_writer_rejects_what_json_dumps_rejects(payload):
    with pytest.raises(TypeError):
        _dumps(payload)
    with pytest.raises(TypeError):
        cli._json_text(payload)


@pytest.mark.parametrize("key", [2, 0.5, False, None], ids=repr)
def test_json_writer_takes_string_keys_only(key):
    with pytest.raises(TypeError):
        cli._json_text({key: "value"})


def _as_dicts(payload):
    """payload with each Check record as the dict the JSON shows for it,
    and each block as the dicts of its checks."""
    if isinstance(payload, Check):
        return {"name": payload.name, "status": payload.status,
                "detail": payload.detail}
    if isinstance(payload, list):
        return [d for v in payload for d in (
            map(_as_dicts, v) if isinstance(v, CheckBlock) else [_as_dicts(v)])]
    if isinstance(payload, dict):
        return {k: _as_dicts(v) for k, v in payload.items()}
    return payload


_texts = st.text(st.sampled_from('"\\/\x00\x1f\x7f\t\n é☃\U0001d11e')
                 | st.characters(), max_size=8)
_statuses = st.sampled_from(["pass", "fail", "skip"])
_escaped = _texts.map(lambda t: t.replace("{", "{{").replace("}", "}}"))
_check_blocks = st.builds(
    CheckBlock, st.lists(st.tuples(_escaped, _escaped).map("{0}".join),
                         min_size=1, max_size=3).map(tuple),
    st.lists(st.tuples(_texts), max_size=3).map(tuple), _statuses, _texts)
_check_lists = st.lists(st.builds(Check, _texts, _statuses, _texts)
                        | _check_blocks, max_size=4)
_payloads = st.recursive(
    _check_lists | st.none() | st.booleans() | st.integers() | _texts,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_texts, inner, max_size=3), max_leaves=12)


@examples(100)
@given(_payloads)
@example({"checks": [Check("a \"b\" \\ c", "pass"),
                     Check("ü\x00", "fail", "")],
          "none": [], "deeper": [[Check("", "skip", "\U0001d11e")]]})
@example({"empty block": [CheckBlock(("{0}",), (), "pass")],
          "blocks": [CheckBlock(("<{0}|", "|{0}>"), (("a",), ("\"",)), "pass",
                                "exact"), Check("c", "fail", "x")]})
def test_json_writer_writes_check_lists_as_their_dicts(payload):
    assert cli._json_text(payload) == _dumps(_as_dicts(payload))


@pytest.mark.parametrize("payload", [
    [Check("a", "pass"), {"name": "b"}], [{"name": "a"}, Check("b", "pass")],
    [Check("a", "pass"), Check(1, "pass")], (Check("a", "pass"),),
    [CheckBlock(("{0}",), (("a",),), "pass"), {"name": "b"}],
    [{"name": "a"}, CheckBlock(("{0}",), (("b",),), "pass")],
    [Check("a", "pass"), CheckBlock(("{0}",), (("b",),), "pass"), None],
    (CheckBlock(("{0}",), (("a",),), "pass"),),
], ids=repr)
def test_json_writer_rejects_lists_mixing_checks(payload):
    with pytest.raises(TypeError):
        cli._json_text(payload)


def test_verify_reports_write_as_their_expanded_checks():
    # Every report of verify --max-j 2 against the same report with each
    # block expanded into its Check records: the same counts, verdict,
    # lines, JSON text and CSV rows.
    reports = [r for _, fn in cli.SUITES for r in fn(half(2))]
    assert sum(type(item) is CheckBlock for r in reports for item in r.items)
    assert sum(r.counts()["pass"] for r in reports) == 8790
    for r in reports:
        eager = Report(r.suite, r.checks, list(r.notes), r.elapsed)
        assert all(type(item) is Check for item in eager.items)
        assert (r.counts(), r.ok) == (eager.counts(), eager.ok)
        for passing in (True, False):
            assert r.lines(passing) == eager.lines(passing)
        assert cli._json_text(r.to_json()) == cli._json_text(eager.to_json())
        assert list(cli._check_rows([(("s", r.suite), r)])) == [
            ["s", r.suite, c.name, c.status, c.detail] for c in eager.items]


def test_verify_json_is_json_dumps_text_on_stdout_and_in_the_out_file(
        capsys, tmp_path):
    code, out, _ = run(capsys, "verify", "--max-j", "2", "--format", "json")
    assert code == 0
    assert out == _dumps(json.loads(out)) + "\n"
    target = tmp_path / "verify.json"
    code, quiet, _ = run(capsys, "verify", "--max-j", "2", "--format", "json",
                         "--out", str(target))
    assert (code, quiet) == (0, "")
    mask = functools.partial(re.sub, r'"elapsed_s": [^,\n]+', "")
    assert mask(target.read_bytes().decode("utf-8")) == mask(out)


# -- exact scalars in the JSON writer --------------------------------------------


def _as_scalar_dicts(payload):
    """payload with each HPoly as its serialize.scalar_to_json list."""
    if isinstance(payload, HPoly):
        return scalar_to_json(payload)
    if isinstance(payload, list):
        return [_as_scalar_dicts(v) for v in payload]
    if isinstance(payload, dict):
        return {k: _as_scalar_dicts(v) for k, v in payload.items()}
    return payload


_numerators = st.integers(-10**6, 10**6) | st.integers(-10**40, 10**40)
_terms = st.tuples(
    st.builds(Fraction, _numerators,
              st.integers(1, 10**6) | st.integers(1, 10**30)),
    st.sampled_from([1, 2, 3, 5, 6, 7, 10, 15, 30, 2 * 3 * 5 * 7 * 11 * 13]),
    st.integers(0, 5))
_scalars = st.lists(_terms, max_size=4).map(lambda terms: sum(
    (HPoly.h(k, RadScalar.of(q, n)) for q, n, k in terms), HPoly.zero()))
_scalar_payloads = st.recursive(
    _scalars | st.integers() | _texts | st.none(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_texts, inner, max_size=3), max_leaves=10)


@examples(100)
@given(_scalar_payloads)
@example(HPoly.zero())
@example({"entries": [HPoly.zero(), HPoly.one(), [HPoly.h(3, -1)]],
          "value": HPoly.h(2, RadScalar.of(Fraction(-10**40, 3), 6))})
@example((lambda p: {"a": p, "b": [p, {"c": [p]}], "d": p})(
    HPoly.h(1, RadScalar.of(Fraction(-3, 4), 6)) + 1))  # one object, 3 indents
def test_json_writer_writes_exact_scalars_as_scalar_to_json(payload):
    assert cli._json_text(payload) == _dumps(_as_scalar_dicts(payload))


@pytest.mark.parametrize("columns", [("k1", "multiplicity", "value"),
                                     ("value", "b", "a")], ids=str)
def test_json_writer_writes_rows_as_their_objects(columns):
    # Labels as strings, integers as they are and the value column as
    # scalar_to_json, one object per row with sorted keys; no rows, [].
    exact = [HPoly.h(2, RadScalar.of(Fraction(-3, 4), 6)), 0, HPoly.one()]
    labels = [("1/2", -1), ("0", 2 ** 70), ('"q" \\ é', 0)]
    rows = [tuple(v if c == "value" else next(cells) for c in columns)
            for v, cells in zip(exact, map(iter, labels))]
    for some in (rows, rows[:1], []):
        expected = [{c: scalar_to_json(v) if c == "value" else v
                     if isinstance(v, int) else str(v)
                     for c, v in zip(columns, row)} for row in some]
        assert (cli._json_text({"meta": "m", "entries": cli._Rows(columns, some)})
                == _dumps({"meta": "m", "entries": expected}))


def test_json_writer_writes_matrices_as_matrix_to_json():
    for m in (irrep(half(3, 2)).exp_hx, rank1_generators(1).component(0),
              coupling.cgc_matrix(1, half(1, 2))):
        assert (cli._json_text({"m": m})
                == _dumps({"m": matrix_to_json(m)}))


def _pretty(m):
    """The aligned-column text of m, formed from its entries."""
    cells = [[str(p) for p in row] for row in m.entries]
    widths = [max(len(row[k]) for row in cells) for k in range(m.cols)]
    return "\n".join("[ " + "  ".join(c.rjust(w) for c, w in zip(row, widths))
                     + " ]" for row in cells)


def test_matrices_keep_their_texts_on_the_shared_view(capsys, monkeypatch):
    monkeypatch.delenv("JORDANIAN_FORMAT", raising=False)
    j, fam = half(5, 2), rank1_generators(1)
    rep = irrep(j)
    requests = {
        ("irrep", "--j", "5/2"): {
            "j": "5/2", "dim": 6, "weights": [str(w) for w in weight_range(j)],
            "matrices": {"X": rep.x, "Y": rep.y, "H": rep.hm}},
        ("tensorop", "--realization", "rank1", "--j", "1"): {
            "realization": "rank1", "rank": "1", "j": "1",
            "components": dict(zip(map(str, weight_range(fam.rank)),
                                   fam.components))}}
    formed = []
    real = cli._json_scalar
    monkeypatch.setattr(cli, "_json_scalar",
                        lambda p, newline: formed.append(p) or real(p, newline))
    for argv, payload in requests.items():
        key = "matrices" if "matrices" in payload else "components"
        mats = payload[key]
        expected = _dumps({**payload, key: {n: matrix_to_json(m)
                                            for n, m in mats.items()}}) + "\n"
        assert run(capsys, *argv, "--format", "json") == (0, expected, "")
        assert all(getattr(m._view, "json", None) for m in mats.values())
        formed.clear()  # a repeated request writes every matrix as kept
        assert run(capsys, *argv, "--format", "json") == (0, expected, "")
        assert formed == []
    for m in (rep.x, fam.components[0], PolyMatrix(rep.x.entries)):
        assert str(m) == _pretty(m) and str(m) is str(m)
        # A relabeled matrix shares the view and its texts, not its weights.
        for weights in (None, tuple(reversed(m.row_weights or ())) or None):
            other = m._relabeled(weights, weights)
            assert other._view is m._view and str(other) is str(m)
            for x in (m, other):  # kept at one indent, moved to the others
                assert cli._json_text({"m": x}) == _dumps({"m": matrix_to_json(x)})
                assert cli._json_text([x]) == _dumps([matrix_to_json(x)])
        for name in ("rows", "text", "json"):
            with pytest.raises(AttributeError):
                setattr(m._view, name, None)
    assert str(rep.x) == str(irrep(j).x)


def _json_requests():
    spins = ["0", "1/2", "1", "3/2"]
    pairs = [(a, b) for a in spins[1:] for b in spins[1:]]
    for j in spins:
        yield ["irrep", "--j", j]
        yield ["irrep", "--j", j, "--gen", "casimir"]
        yield ["irrep", "--j", j, "--gen", "expmHX", "--h-eval", "2/3"]
        yield ["tensorop", "--realization", "boson-raising", "--j", j]
        yield ["tensorop", "--realization", "identity", "--j", j]
        if j != "0":
            yield ["tensorop", "--realization", "rank1", "--j", j]
            yield ["tensorop", "--realization", "boson-lowering", "--j", j]
    yield ["tensorop", "--realization", "fermion-a"]
    for j1, j2 in pairs:
        yield ["alpha", "--j1", j1, "--j2", j2]
        yield ["alpha", "--j1", j1, "--j2", j2, "--k1", f"-{j1}", "--k2", j2,
               "--m1", j1, "--m2", f"-{j2}"]
        for j in coupled_spins(HalfInt.parse(j1), HalfInt.parse(j2)):
            base = ["cgc", "--j1", j1, "--j2", j2, "--j", str(j)]
            yield base + ["--classical"]
            yield base + ["--m", f"-{j}" if j else "0"]
            yield base + ["--m", str(j), "--bra"]


@pytest.mark.parametrize("argv", list(_json_requests()), ids=" ".join)
def test_json_output_is_json_dumps_text(capsys, argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == _dumps(json.loads(out)) + "\n"


def test_queries_write_no_scalar_dicts(capsys, monkeypatch):
    calls = []
    assert "scalar_to_json" not in vars(cli)
    monkeypatch.setattr(serialize, "scalar_to_json",
                        lambda p: calls.append(p))
    for argv in (["irrep", "--j", "1"], ["alpha", "--j1", "1", "--j2", "1"],
                 ["cgc", "--j1", "1", "--j2", "1", "--j", "1", "--m", "0"],
                 ["tensorop", "--realization", "rank1", "--j", "1"]):
        assert run(capsys, *argv, "--format", "json")[0] == 0
    assert calls == []


# -- memos of the request path ------------------------------------------------------


def test_second_casimir_request_builds_no_casimir(capsys, monkeypatch):
    built = []
    real = irreps.casimir_from_gens
    monkeypatch.setattr(irreps, "casimir_from_gens",
                        lambda gens: built.append(gens) or real(gens))
    irreps.casimir_matrix.built.clear()
    first = run(capsys, "irrep", "--j", "3/2", "--gen", "casimir")
    assert first[0] == 0 and len(built) == 1
    for fmt in cli.FORMATS:
        assert run(capsys, "irrep", "--j", "3/2", "--gen", "casimir",
                   "--format", fmt)[0] == 0
    assert run(capsys, "irrep", "--j", "3/2", "--gen", "casimir") == first
    assert len(built) == 1
    assert irreps.casimir_matrix("3/2") is irreps.casimir_matrix(half(3, 2))


def test_spin_texts_are_parsed_once():
    cli._spin.cache_clear()
    assert cli._spin("-3/2") is cli._spin("-3/2") == half(-3, 2)
    assert cli._spin.cache_info().hits == 1
    with pytest.raises(argparse.ArgumentTypeError, match="not a half-integer"):
        cli._spin("1/3")
