"""Command-line interface.

Subcommands expose the building blocks (irrep, alpha, cgc, decompose,
tensorop) and the verification machinery (wigner-eckart, verify).  Output
formats: pretty (default), json, csv; the default can be set through the
JORDANIAN_FORMAT environment variable.  Exit codes: 0 on success, 1 when a
verification check fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

from .coupling import (SelectionRuleError, alpha_table, coupled_bra,
                       coupled_ket, decompose, product_labels,
                       product_weight_index, sl2_cgc, triangle_allowed,
                       uh_cgc, uh_cgc_bra, verify_alpha_orthogonality,
                       verify_intermediate_action,
                       verify_intermediate_orthonormality)
from .halfint import HalfInt, dim_of, half
from .irreps import (casimir_matrix, irrep, verify_casimir,
                     verify_defining_relations, verify_hopf_axioms)
from .polymatrix import PolyMatrix
from .report import Check, Report
from .serialize import matrix_to_json, scalar_to_json
from .tensorops import (OpSpaceContext, TensorOpFamily, boson_lowering_family,
                        boson_raising_family, couple_tensor_ops,
                        fermion_modes, fermion_realization,
                        fermion_wigner_families, identity_family,
                        rank1_generators, verify_adjoint_is_representation,
                        verify_boson_action, verify_fermion_sector_exchange,
                        verify_tensor_operator)
from .wigner import (reduced_matrix_element, verify_overlap_recurrence,
                     verify_phi_recurrence, verify_wigner_eckart)

FORMATS = ("pretty", "json", "csv")


def _spin(text: str) -> HalfInt:
    try:
        return HalfInt.parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a half-integer: {text!r}") from exc


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _spin_range(lo: HalfInt, hi: HalfInt) -> list[HalfInt]:
    return [HalfInt.from_twice(t) for t in range(lo.twice, hi.twice + 1)]


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _csv_text(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _matrix_pretty(name: str, mat: PolyMatrix) -> str:
    return f"{name} =\n{mat}"


def _maybe_eval(mat: PolyMatrix, h_eval: Fraction | None) -> PolyMatrix:
    return mat.eval_h(h_eval) if h_eval is not None else mat


# -- family selection ---------------------------------------------------------

REALIZATIONS = ("fermion-a", "fermion-b", "boson-raising", "boson-lowering",
                "rank1", "identity")


def _family(realization: str, j: HalfInt | None,
            for_factorization: bool) -> TensorOpFamily:
    needs_j = realization not in ("fermion-a", "fermion-b")
    if needs_j and j is None:
        raise ValueError(f"--j is required for realization {realization!r}")
    if not needs_j and j is not None:
        raise ValueError(f"--j does not apply to realization {realization!r}")
    if realization == "fermion-a":
        return fermion_wigner_families()[0] if for_factorization \
            else fermion_realization()[1]
    if realization == "fermion-b":
        return fermion_wigner_families()[1] if for_factorization \
            else fermion_realization()[2]
    if realization == "boson-raising":
        return boson_raising_family(j)
    if realization == "boson-lowering":
        return boson_lowering_family(j)
    if realization == "rank1":
        return rank1_generators(j)
    if realization == "identity":
        return identity_family(j)
    raise ValueError(f"unknown realization {realization!r}")


# -- verification suites -------------------------------------------------------

def _timed(fn, *args, **kwargs) -> Report:
    start = time.perf_counter()
    report = fn(*args, **kwargs)
    report.elapsed = time.perf_counter() - start
    return report


def _decompose_report(j1: HalfInt, j2: HalfInt) -> Report:
    report = Report(f"product module decomposition {j1} (x) {j2}")
    try:
        summands = decompose(j1, j2)
    except ArithmeticError as exc:
        report.add(Check("coupled Casimir certification", "fail", str(exc)))
        return report
    text = " + ".join(str(j) for j, _ in summands)
    report.add(Check("coupled Casimir certification", "pass",
                     f"spins {text}, each once"))
    return report


def _algebra_suite(max_j: HalfInt) -> list[Report]:
    reports = []
    for j in _spin_range(half(0), max_j):
        reports.append(_timed(verify_defining_relations, j))
        reports.append(_timed(verify_casimir, j))
        reports.append(_timed(verify_hopf_axioms, j))
    return reports


def _coupling_suite(max_j: HalfInt) -> list[Report]:
    reports = []
    for j1 in _spin_range(half(1, 2), max_j):
        for j2 in _spin_range(half(1, 2), max_j):
            reports.append(_timed(verify_alpha_orthogonality, j1, j2))
            reports.append(_timed(verify_intermediate_orthonormality, j1, j2))
            reports.append(_timed(verify_intermediate_action, j1, j2))
            reports.append(_timed(_decompose_report, j1, j2))
    return reports


def _tensorops_suite(max_j: HalfInt) -> list[Report]:
    reports = []
    block, fam_a, fam_b = fermion_realization()
    ctx = OpSpaceContext(source=block.gens, target=block.gens)
    samples = list(fermion_modes().values())
    reports.append(_timed(verify_adjoint_is_representation, ctx, samples,
                          label="(fermion modes)"))
    reports.append(_timed(verify_tensor_operator, fam_a, label="(fermion A)"))
    reports.append(_timed(verify_tensor_operator, fam_b, label="(fermion B)"))
    reports.append(_timed(verify_fermion_sector_exchange, block, fam_a,
                          label="(fermion A)"))
    reports.append(_timed(verify_fermion_sector_exchange, block, fam_b,
                          label="(fermion B)"))
    for j in _spin_range(half(0), max_j):
        reports.append(_timed(verify_tensor_operator, boson_raising_family(j),
                              label=f"(boson raising, spin {j})"))
        reports.append(_timed(verify_boson_action, j))
        if j.twice >= 1:
            reports.append(_timed(verify_tensor_operator,
                                  boson_lowering_family(j),
                                  label=f"(boson lowering, spin {j})"))
            reports.append(_timed(verify_tensor_operator, rank1_generators(j),
                                  label=f"(rank-1 generator family, spin {j})"))
    reports.append(_timed(verify_tensor_operator, identity_family(max_j),
                          label=f"(identity family, spin {max_j})"))
    coupled1 = couple_tensor_ops(fam_a, fam_b, 1)
    coupled0 = couple_tensor_ops(fam_a, fam_b, 0)
    reports.append(_timed(verify_tensor_operator, coupled1,
                          label="(fermion A (x) B coupled to rank 1)"))
    reports.append(_timed(verify_tensor_operator, coupled0,
                          label="(fermion A (x) B coupled to rank 0)"))
    up_again = couple_tensor_ops(boson_raising_family(1), boson_raising_family(half(1, 2)), 1)
    reports.append(_timed(verify_tensor_operator, up_again,
                          label="(boson raising (x) raising coupled to rank 1)"))
    return reports


def _wigner_suite(max_j: HalfInt) -> list[Report]:
    reports = []
    fam_a, fam_b = fermion_wigner_families()
    for fam, tag in ((fam_a, "fermion A"), (fam_b, "fermion B")):
        reports.append(_timed(verify_phi_recurrence, fam, label=f"({tag})"))
        reports.append(_timed(verify_overlap_recurrence, fam, label=f"({tag})"))
        reports.append(_timed(verify_wigner_eckart, fam, label=f"({tag})"))
    for j in _spin_range(half(0), max_j):
        fam = boson_raising_family(j)
        reports.append(_timed(verify_phi_recurrence, fam,
                              label=f"(boson raising, spin {j})"))
        reports.append(_timed(verify_overlap_recurrence, fam,
                              label=f"(boson raising, spin {j})"))
        reports.append(_timed(verify_wigner_eckart, fam,
                              label=f"(boson raising, spin {j})"))
        if j.twice >= 1:
            fam = boson_lowering_family(j)
            reports.append(_timed(verify_wigner_eckart, fam,
                                  label=f"(boson lowering, spin {j})"))
            fam = rank1_generators(j)
            reports.append(_timed(verify_wigner_eckart, fam,
                                  label=f"(rank-1 generator family, spin {j})"))
    reports.append(_timed(verify_wigner_eckart, identity_family(max_j),
                          label=f"(identity family, spin {max_j})"))
    report = Report("selection rule at spin 0")
    fam0 = rank1_generators(0)
    all_zero = all(t.is_zero for t in fam0.components)
    report.add(Check("rank-1 family on the trivial module vanishes",
                     "pass" if all_zero else "fail",
                     "no spin-0 to spin-0 channel at rank 1"))
    reports.append(report)
    return reports


SUITES = (
    ("uh-algebra", _algebra_suite),
    ("coupling", _coupling_suite),
    ("tensor-ops", _tensorops_suite),
    ("wigner-eckart", _wigner_suite),
)


# -- command handlers ----------------------------------------------------------

def _cmd_irrep(args) -> int:
    j = args.j
    rep = irrep(j)
    mats = {
        "X": rep.x, "Y": rep.y, "H": rep.hm, "Zp": rep.zp, "Zm": rep.zm,
        "expHX": rep.exp_hx, "expmHX": rep.exp_mhx,
        "casimir": casimir_matrix(j),
    }
    names = [args.gen] if args.gen else ["X", "Y", "H"]
    chosen = {name: _maybe_eval(mats[name], args.h_eval) for name in names}
    if args.format == "json":
        payload = {"j": str(j), "dim": rep.dim,
                   "weights": [str(m) for m in rep.weights],
                   "matrices": {n: matrix_to_json(m) for n, m in chosen.items()}}
        _emit(_json_text(payload), args.out)
    elif args.format == "csv":
        rows = [["matrix", "row", "col", "entry"]]
        for n, m in chosen.items():
            for i in range(m.rows):
                for k in range(m.cols):
                    rows.append([n, str(i), str(k), str(m.entry(i, k))])
        _emit(_csv_text(rows), args.out)
    else:
        parts = [f"spin {j} module, dimension {rep.dim}, "
                 f"weights {' '.join(str(m) for m in rep.weights)}"]
        parts += [_matrix_pretty(n, m) for n, m in chosen.items()]
        _emit("\n\n".join(parts), args.out)
    return 0


def _cmd_alpha(args) -> int:
    j1, j2 = args.j1, args.j2
    table = alpha_table(j1, j2)
    indices = {"--k1": args.k1, "--k2": args.k2, "--m1": args.m1,
               "--m2": args.m2}
    missing = [opt for opt, v in indices.items() if v is None]
    if 0 < len(missing) < len(indices):
        raise ValueError(f"--k1, --k2, --m1 and --m2 go together; missing "
                         f"{', '.join(missing)}")
    if not missing:
        value = table.value(args.k1, args.k2, args.m1, args.m2)
        if args.format == "json":
            payload = {"j1": str(j1), "j2": str(j2),
                       "k1": str(args.k1), "k2": str(args.k2),
                       "m1": str(args.m1), "m2": str(args.m2),
                       "value": scalar_to_json(value)}
            _emit(_json_text(payload), args.out)
        elif args.format == "csv":
            rows = [["k1", "k2", "m1", "m2", "value"],
                    [str(args.k1), str(args.k2), str(args.m1), str(args.m2),
                     str(value)]]
            _emit(_csv_text(rows), args.out)
        else:
            _emit(f"alpha[{args.k1},{args.k2}; {args.m1},{args.m2}] = {value}",
                  args.out)
        return 0
    labels = product_labels(j1, j2)
    entries = [(k1, k2, m1, m2, table.ket.entry(r, c))
               for c, (m1, m2) in enumerate(labels)
               for r, (k1, k2) in enumerate(labels) if table.ket.entry(r, c)]
    if args.format == "json":
        payload = {"j1": str(j1), "j2": str(j2),
                   "entries": [{"k1": str(k1), "k2": str(k2), "m1": str(m1),
                                "m2": str(m2), "value": scalar_to_json(v)}
                               for k1, k2, m1, m2, v in entries]}
        _emit(_json_text(payload), args.out)
    elif args.format == "csv":
        rows = [["k1", "k2", "m1", "m2", "value"]]
        rows += [[str(k1), str(k2), str(m1), str(m2), str(v)]
                 for k1, k2, m1, m2, v in entries]
        _emit(_csv_text(rows), args.out)
    else:
        lines = [f"alpha table for the pair ({j1}, {j2}); "
                 f"{len(entries)} nonzero entries"]
        lines += [f"alpha[{k1},{k2}; {m1},{m2}] = {v}"
                  for k1, k2, m1, m2, v in entries]
        _emit("\n".join(lines), args.out)
    return 0


def _cmd_cgc(args) -> int:
    j1, j2, j, m = args.j1, args.j2, args.j, args.m
    kind = "classical" if args.classical else "bra" if args.bra else "ket"
    single = args.k1 is not None
    if single != (args.k2 is not None):
        raise ValueError(f"--k1 and --k2 go together; missing "
                         f"{'--k2' if single else '--k1'}")
    if kind == "classical":
        if m is not None:
            raise ValueError("--m applies to deformed coefficients only")
        if not triangle_allowed(j1, j2, j):
            raise SelectionRuleError(f"spin {j} does not occur in {j1} (x) {j2}")
    elif m is None:
        raise ValueError("--m is required for deformed coefficients")
    labels = [(args.k1, args.k2)] if single else product_labels(j1, j2)
    if kind == "classical":
        if single:  # raises for a weight off its ladder
            product_weight_index(j1, j2, args.k1, args.k2)
        values = [sl2_cgc(j1, j2, j, k1, k2) for k1, k2 in labels]
    elif single:
        values = [(uh_cgc_bra if args.bra else uh_cgc)(j1, j2, j, *labels[0], m)]
    elif kind == "bra":
        values = coupled_bra(j1, j2, j, m).entries[0]
    else:
        values = [c for (c,) in coupled_ket(j1, j2, j, m).entries]
    cells = [(k1, k2, v) for (k1, k2), v in zip(labels, values) if v or single]
    m_text = str(args.m) if args.m is not None else "k1+k2"
    if args.format == "json":
        payload = {"j1": str(j1), "j2": str(j2), "j": str(j), "m": m_text,
                   "kind": kind,
                   "entries": [{"k1": str(k1), "k2": str(k2),
                                "value": scalar_to_json(v)}
                               for k1, k2, v in cells]}
        _emit(_json_text(payload), args.out)
    elif args.format == "csv":
        rows = [["k1", "k2", "value"]]
        rows += [[str(k1), str(k2), str(v)] for k1, k2, v in cells]
        _emit(_csv_text(rows), args.out)
    else:
        lines = [f"{kind} coupling coefficients ({j1}, {j2}) -> {j}, m = {m_text}"]
        lines += [f"[{k1}, {k2}] = {v}" for k1, k2, v in cells]
        _emit("\n".join(lines), args.out)
    return 0


def _cmd_decompose(args) -> int:
    summands = decompose(args.j1, args.j2)
    if args.format == "json":
        payload = {"j1": str(args.j1), "j2": str(args.j2),
                   "summands": [{"j": str(j), "multiplicity": mult}
                                for j, mult in summands]}
        _emit(_json_text(payload), args.out)
    elif args.format == "csv":
        rows = [["j", "multiplicity"]]
        rows += [[str(j), str(mult)] for j, mult in summands]
        _emit(_csv_text(rows), args.out)
    else:
        text = " + ".join(str(j) for j, _ in summands)
        _emit(f"{args.j1} (x) {args.j2} = {text}   (certified by the coupled "
              f"Casimir)", args.out)
    return 0


def _cmd_tensorop(args) -> int:
    fam = _family(args.realization, args.j, for_factorization=False)
    weights = fam.weights
    comps = {m: _maybe_eval(fam.component(m), args.h_eval)
             for m in ([args.m] if args.m is not None else weights)}
    if args.format == "json":
        payload = {"realization": args.realization, "rank": str(fam.rank),
                   "components": {str(m): matrix_to_json(t)
                                  for m, t in comps.items()}}
        if args.j is not None:
            payload["j"] = str(args.j)
        _emit(_json_text(payload), args.out)
    elif args.format == "csv":
        rows = [["component", "row", "col", "entry"]]
        for m, t in comps.items():
            for i in range(t.rows):
                for k in range(t.cols):
                    rows.append([str(m), str(i), str(k), str(t.entry(i, k))])
        _emit(_csv_text(rows), args.out)
    else:
        parts = [f"rank {fam.rank} family ({args.realization})"]
        parts += [_matrix_pretty(f"t[{m}]", t) for m, t in comps.items()]
        _emit("\n\n".join(parts), args.out)
    return 0


def _cmd_wigner_eckart(args) -> int:
    fam = _family(args.realization, args.j, for_factorization=True)
    reports = [
        _timed(verify_phi_recurrence, fam, label=f"({args.realization})"),
        _timed(verify_overlap_recurrence, fam, label=f"({args.realization})"),
        _timed(verify_wigner_eckart, fam, label=f"({args.realization})"),
    ]
    ok = all(r.ok for r in reports)
    if args.format == "json":
        payload = {"realization": args.realization, "passed": ok,
                   "reports": [r.to_json() for r in reports]}
        if args.j is not None:
            payload["j"] = str(args.j)
        _emit(_json_text(payload), args.out)
    elif args.format == "csv":
        rows = [["suite", "check", "status", "detail"]]
        for r in reports:
            for c in r.checks:
                rows.append([r.suite, c.name, c.status, c.detail])
        _emit(_csv_text(rows), args.out)
    else:
        lines = []
        for r in reports:
            counts = r.counts()
            lines.append(f"== {r.suite}: {counts['pass']} passed, "
                         f"{counts['fail']} failed")
            lines += ["  " + line for line in r.lines()
                      if args.verbose or not line.startswith("PASS")]
        rme = reduced_matrix_element(fam)
        lines.append(str(rme))
        _emit("\n".join(lines), args.out)
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    dim_of(args.max_j)  # raises for a negative spin before any suite runs
    chosen = [(name, fn) for name, fn in SUITES
              if args.suite in (None, name)]
    all_reports: list[tuple[str, Report]] = []
    for name, fn in chosen:
        for report in fn(args.max_j):
            all_reports.append((name, report))
    ok = all(r.ok for _, r in all_reports)
    if args.format == "json":
        payload = {"max_j": str(args.max_j), "passed": ok,
                   "suites": [{"suite": name, **r.to_json()}
                              for name, r in all_reports]}
        _emit(_json_text(payload), args.out)
    elif args.format == "csv":
        rows = [["suite", "report", "check", "status", "detail"]]
        for name, r in all_reports:
            for c in r.checks:
                rows.append([name, r.suite, c.name, c.status, c.detail])
        _emit(_csv_text(rows), args.out)
    else:
        lines = []
        current = None
        total = {"pass": 0, "fail": 0, "skip": 0}
        for name, r in all_reports:
            if name != current:
                lines.append(f"=== suite: {name}")
                current = name
            counts = r.counts()
            for key in total:
                total[key] += counts[key]
            status = "ok" if r.ok else "FAILED"
            lines.append(f"  {status:6s} {r.suite} "
                         f"({counts['pass']} checks, {r.elapsed:.2f}s)")
            if args.verbose or not r.ok:
                lines += ["    " + line for line in r.lines()
                          if args.verbose or line.startswith("FAIL")]
            lines += ["    NOTE " + n for n in r.notes]
        verdict = "all checks passed" if ok else "CHECKS FAILED"
        lines.append(f"{verdict}: {total['pass']} passed, {total['fail']} "
                     f"failed, {total['skip']} skipped")
        _emit("\n".join(lines), args.out)
    return 0 if ok else 1


# -- parser --------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jordanian",
        description="Exact representation theory of the Jordanian quantum "
                    "algebra: modules, coupling coefficients, tensor "
                    "operators, and verification suites.")
    default_format = os.environ.get("JORDANIAN_FORMAT", "pretty")
    if default_format not in FORMATS:
        default_format = "pretty"
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, h_eval=False):
        p.add_argument("--format", choices=FORMATS, default=default_format,
                       help="output format (default from JORDANIAN_FORMAT "
                            "or pretty)")
        p.add_argument("--out", help="write output to this file")
        if h_eval:
            p.add_argument("--h-eval", type=_rational, default=None,
                           help="evaluate entries at this rational value of "
                                "the deformation parameter")

    p = sub.add_parser("irrep", help="generator matrices of one module")
    p.add_argument("--j", type=_spin, required=True, help="spin label")
    p.add_argument("--gen", choices=["X", "Y", "H", "Zp", "Zm", "expHX",
                                     "expmHX", "casimir"],
                   help="one matrix (default: X, Y, H)")
    common(p, h_eval=True)
    p.set_defaults(handler=_cmd_irrep)

    p = sub.add_parser("alpha",
                       help="product-to-intermediate transition table")
    p.add_argument("--j1", type=_spin, required=True)
    p.add_argument("--j2", type=_spin, required=True)
    p.add_argument("--k1", type=_spin)
    p.add_argument("--k2", type=_spin)
    p.add_argument("--m1", type=_spin)
    p.add_argument("--m2", type=_spin)
    common(p)
    p.set_defaults(handler=_cmd_alpha)

    p = sub.add_parser("cgc", help="coupling coefficients, deformed or "
                                   "classical")
    p.add_argument("--j1", type=_spin, required=True)
    p.add_argument("--j2", type=_spin, required=True)
    p.add_argument("--j", type=_spin, required=True)
    p.add_argument("--m", type=_spin, help="coupled weight (deformed only)")
    p.add_argument("--k1", type=_spin)
    p.add_argument("--k2", type=_spin)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--classical", action="store_true",
                       help="classical coefficients")
    group.add_argument("--bra", action="store_true",
                       help="deformed coefficients of the coupled bra")
    common(p)
    p.set_defaults(handler=_cmd_cgc)

    p = sub.add_parser("decompose",
                       help="decompose a product of two modules")
    p.add_argument("--j1", type=_spin, required=True)
    p.add_argument("--j2", type=_spin, required=True)
    common(p)
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("tensorop", help="components of one operator family")
    p.add_argument("--realization", choices=REALIZATIONS, required=True)
    p.add_argument("--j", type=_spin, help="module spin (all realizations "
                                           "except the fermionic ones)")
    p.add_argument("--m", type=_spin, help="one component")
    common(p, h_eval=True)
    p.set_defaults(handler=_cmd_tensorop)

    p = sub.add_parser("wigner-eckart",
                       help="verify the factorization of matrix elements "
                            "for one family")
    p.add_argument("--realization", choices=REALIZATIONS, required=True)
    p.add_argument("--j", type=_spin)
    p.add_argument("--verbose", action="store_true",
                   help="print passing checks too")
    common(p)
    p.set_defaults(handler=_cmd_wigner_eckart)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--max-j", type=_spin, default=half(2),
                   help="largest spin to cover (default 2)")
    p.add_argument("--suite", choices=[name for name, _ in SUITES],
                   help="run a single suite")
    p.add_argument("--verbose", action="store_true",
                   help="print every check line")
    common(p)
    p.set_defaults(handler=_cmd_verify)
    return parser


_VALUE_OPTIONS = frozenset(
    ["--j", "--j1", "--j2", "--m", "--m1", "--m2", "--k1", "--k2",
     "--max-j", "--h-eval"])
_NEGATIVE_VALUE = re.compile(r"^-\d+(/\d+)?$")


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Turn ('--m2', '-1/2') into ('--m2=-1/2',) so negative spins parse."""
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        if (tok in _VALUE_OPTIONS and i + 1 < len(argv)
                and _NEGATIVE_VALUE.match(argv[i + 1])):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_merge_negative_values(list(argv)))
    try:
        return args.handler(args)
    except (ValueError, KeyError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
