"""End-to-end tests for the command-line interface.

Every test drives ``main()`` directly with an argv list and inspects the
exit code plus captured stdout/stderr, so the full argparse wiring, the
negative-value preprocessing, and the output formatting are all exercised
exactly as a shell invocation would.
"""

import hashlib
import json
import re
from fractions import Fraction

import pytest

from jordanian import cli, coupling
from jordanian.cli import _merge_negative_values, build_parser, main
from jordanian.halfint import HalfInt, half
from jordanian.hpoly import HPoly
from jordanian.irreps import irrep
from jordanian.radical import RadScalar
from jordanian.serialize import matrix_from_json, scalar_from_json
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
    coupling._certified_decomposition.cache_clear()
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
