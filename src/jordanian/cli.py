"""Command-line interface.

Subcommands expose the building blocks (irrep, alpha, cgc, decompose,
tensorop) and the verification machinery (wigner-eckart, verify).  Output
formats: pretty (default), json, csv; the default can be set through the
JORDANIAN_FORMAT environment variable.  Each handler checks its arguments,
computes its result and passes it to one of three renderers (named matrices,
labelled rows, reports), the only readers of --format.  Exit codes: 0 on
success, 1 when a verification check fails, 2 on usage errors, including an
--out file that cannot be written.

argparse defines the options and gives all help, usage and error text.  A
well-formed request (exact option strings with acceptable values) is parsed
by an option table read off its command's parser; anything else, such as
help, a usage error or an abbreviated option, goes to argparse.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
import time
import weakref
from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from operator import itemgetter
from types import SimpleNamespace

from .coupling import (SelectionRuleError, alpha_table, cgc_matrix,
                       coupled_index, decompose,
                       product_label_texts, product_labels,
                       product_weight_index, triangle_allowed,
                       uh_cgc, uh_cgc_bra, verify_alpha_orthogonality,
                       verify_intermediate_action,
                       verify_intermediate_orthonormality)
from .halfint import HalfInt, dim_of, half, weight_texts
from .hpoly import HPoly, as_hpoly
from .irreps import (casimir_matrix, irrep, verify_casimir,
                     verify_defining_relations, verify_hopf_axioms)
from .polymatrix import PolyMatrix
from .report import Check, CheckBlock, Report
from .serialize import DEN, HPOW, NUM, RADICAND
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


@lru_cache(maxsize=1024)
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


def _emit(text: str | Iterable[str], out: str | None) -> None:
    """Write text and a line break to the file out, or to stdout.  Text
    given as pieces (a list or a generator) is written piece by piece,
    never joined into one string or encoded as a whole."""
    pieces = [text] if isinstance(text, str) else text
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.writelines(pieces)
            f.write("\n")
    else:
        sys.stdout.writelines(pieces)
        sys.stdout.write("\n")


def _csv_pieces(rows: Iterable[list[str]]):
    """The CSV text of rows (at least one, none empty) with "\n" line
    breaks and none after the last row, one piece per row as it is made:
    each row's line break goes before the next row's piece."""
    line: list[str] = []
    writer = csv.writer(SimpleNamespace(write=line.append), lineterminator="\n")
    for n, row in enumerate(rows):
        writer.writerow(row)
        yield "\n" + line.pop()[:-1] if n else line.pop()[:-1]


def _json_text(payload) -> str:
    """The text of json.dumps(payload, indent=2, sort_keys=True), written
    without the standard library's pure-Python encoder, which indent
    selects.  Keys must be strings: any other key raises TypeError.  A
    list of Check records and blocks is written as the list of the dicts
    {"detail", "name", "status"} of its checks would be, an HPoly as its
    serialize.scalar_to_json list of term objects, a PolyMatrix as its
    serialize.matrix_to_json object, and _Rows as the list of its row
    objects."""
    out: list[str] = []
    _write_json(payload, out, "\n")
    return "".join(out)


_json_string = json.encoder.encode_basestring_ascii


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


def _write_json(value, out: list[str], newline: str) -> None:
    """Append value to out; newline is the line break and indent that close
    it, and its items sit two spaces further in."""
    if type(value) is HPoly:
        out.append(_json_scalar(value, newline))
    elif isinstance(value, str):
        out.append(_json_string(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_json_float(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        if type(value) is list and type(value[0]) in (Check, CheckBlock):
            objs = _json_checks(value, inner)
            out.append("[" + ",".join(objs) + newline + "]" if objs else "[]")
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            out.append(sep + _json_string(key) + ": ")
            _write_json(value[key], out, inner)
            sep = "," + inner
        out.append(newline + "}")
    elif type(value) is _Rows:
        _json_rows(value, out, newline)
    elif type(value) is PolyMatrix:
        _json_matrix(value, out, newline)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON "
                        f"serializable")


def _json_checks(checks: list[Check | CheckBlock], inner: str) -> list[str]:
    """One object per check of a list of Check records and blocks, at the
    indent inner, keys in sorted order; a block's objects differ only in
    the name, so they come from one template."""
    s, key = _json_string, inner + '  "'
    objs: list[str] = []
    try:
        for c in checks:
            head = f'{inner}{{{key}detail": {s(c.detail)},{key}name": '
            tail = f',{key}status": {s(c.status)}{inner}}}'
            objs += [head + s(name) + tail for name in c.names()]
    except AttributeError:
        raise TypeError("a list that starts with a check holds Check "
                        "records and blocks only") from None
    return objs


class _Rows:
    """Labelled rows for _json_text: a list of objects, one per row, with
    the given columns as keys, written by _row_writer."""
    __slots__ = ("columns", "rows")

    def __init__(self, columns: tuple[str, ...], rows: list):
        self.columns, self.rows = columns, rows


def _json_rows(value: _Rows, out: list[str], newline: str) -> None:
    """Append the row objects of value as a list closed at newline."""
    if not value.rows:
        out.append("[]")
        return
    inner = newline + "  "
    row_text = _row_writer(value.columns, inner)
    out.append("[" + ",".join([inner + row_text(row) for row in value.rows])
               + newline + "]")


def _row_writer(columns: tuple[str, ...], newline: str):
    """A function row -> the JSON object of a row closed at newline, keys
    sorted: exact scalars in the value column through _json_scalar,
    integers as they are, other labels as strings.  The key texts and
    their order are worked out once for all rows."""
    cell = newline + "  "
    keys = [(i, f'{cell}{_json_string(c)}: ', c == "value")
            for i, c in sorted(enumerate(columns), key=itemgetter(1))]
    return lambda row: "{" + ",".join([
        key + (_json_scalar(as_hpoly(row[i]), cell) if exact
               else int.__repr__(row[i]) if isinstance(row[i], int)
               else _json_string(str(row[i])))
        for i, key, exact in keys]) + newline + "}"


def _json_matrix(m: PolyMatrix, out: list[str], newline: str) -> None:
    """Append the object serialize.matrix_to_json gives m, keys sorted.
    The text of its entries is formed once and kept on the view the matrix
    shares with its relabelings, with the indent newline it was formed at;
    at another indent it is moved there by one replace, since every line
    break in it starts an indent.  The shape and weights are written from
    the matrix itself."""
    inner = newline + "  "
    kept = getattr(m._view, "json", None)
    if kept is None:
        cell = inner + "  "
        entries = "[" + ",".join([cell + _json_scalar(p, cell) for row in m.entries
                                  for p in row]) + inner + "]"
        object.__setattr__(m._view, "json", (newline, entries))
    else:
        entries = kept[1] if kept[0] == newline else kept[1].replace(kept[0],
                                                                      newline)
    fields = {"entries": entries,
              "shape": f"[{inner}  {m.rows},{inner}  {m.cols}{inner}]"}
    for name, weights in (("row_weights", m.row_weights),
                          ("col_weights", m.col_weights)):
        if weights is not None:
            fields[name] = "[" + ",".join([f"{inner}  {_json_string(str(w))}"
                                           for w in weights]) + inner + "]"
    out.append("{" + ",".join([f'{inner}"{name}": {fields[name]}'
                               for name in sorted(fields)]) + newline + "}")


def _json_scalar(p: HPoly, newline: str) -> str:
    """An exact scalar as its list of term objects, one template per term,
    keys in sorted order (den, hpow, num, radicand).  The text is kept on
    p with its indent newline, so a scalar written again at the same
    indent is formed once."""
    if not p:
        return "[]"
    kept = getattr(p, "_json", None)
    if kept is not None and kept[0] == newline:
        return kept[1]
    inner = newline + "  "
    key = inner + '  "'
    den, hpow, num, rad = (f'{key}{name}": ' for name in (DEN, HPOW, NUM,
                                                          RADICAND))
    text = "[" + ",".join([
        f'{inner}{{{den}"{q.denominator}",{hpow}{k},{num}"{q.numerator}",'
        f'{rad}"{n}"{inner}}}' for q, n, k in p.sorted_terms()]) + newline + "]"
    object.__setattr__(p, "_json", (newline, text))
    return text


def _maybe_eval(mat: PolyMatrix, h_eval: Fraction | None) -> PolyMatrix:
    return mat.eval_h(h_eval) if h_eval is not None else mat


# -- renderers: the only readers of --format ----------------------------------

def _render_matrices(args, title: str, meta: dict, mats: dict, *,
                     key: str = "matrices", column: str = "matrix",
                     label: str = "{}") -> int:
    """Named matrices (irrep, tensorop): JSON of every matrix under key, CSV
    rows column,row,col,entry, or the title and one label-named block each."""
    if args.format == "json":
        text = _json_text({**meta, key: {str(n): m for n, m in mats.items()}})
    elif args.format == "csv":
        text = _csv_pieces([[column, "row", "col", "entry"]]
                           + [[str(n), str(i), str(k), str(p)]
                              for n, m in mats.items()
                              for i, row in enumerate(m.entries)
                              for k, p in enumerate(row)])
    else:
        text = "\n\n".join([title] + [f"{label.format(n)} =\n{m}"
                                      for n, m in mats.items()])
    _emit(text, args.out)
    return 0


def _render_rows(args, meta: dict, columns: tuple[str, ...], rows: list, *,
                 title: str | None = None, line: str | None = None,
                 key: str | None = "entries") -> int:
    """Labelled coefficient rows (alpha, cgc, decompose): JSON with the rows
    as objects under key (a single row merged into meta, whose values are
    labels, when key is None), CSV with a header, or the title and
    line.format(*row) per row."""
    if args.format == "json":
        text = (_row_writer((*meta, *columns), "\n")((*meta.values(), *rows[0]))
                if key is None else _json_text({**meta, key: _Rows(columns, rows)}))
    elif args.format == "csv":
        text = _csv_pieces([list(columns)]
                           + [[str(v) for v in row] for row in rows])
    else:
        text = "\n".join(([title] if title else [])
                         + [line.format(*row) for row in rows if line])
    _emit(text, args.out)
    return 0


def _render_reports(args, meta: dict, key: str, lead: tuple[str, ...],
                    reports: list[tuple[tuple[str, ...], Report]],
                    text) -> int:
    """Reports (wigner-eckart, verify), given as (lead cells, report) pairs:
    JSON of every report under key, CSV of one row per check led by the
    cells of the lead columns, or the lines of text().  Exit 1 on a failed
    check."""
    if args.format == "json":  # each report's passed flag is its ok
        runs = [r.to_json() for _, r in reports]
        ok = all(run["passed"] for run in runs)
        out = []  # the pieces of _json_text, written without joining
        _write_json({**meta, "passed": ok, key: runs}, out, "\n")
    else:
        ok = all(r.ok for _, r in reports)
        out = (_csv_pieces(chain([[*lead, "check", "status", "detail"]],
                                 _check_rows(reports)))
               if args.format == "csv" else "\n".join(text()))
    _emit(out, args.out)
    return 0 if ok else 1


def _check_rows(reports: list[tuple[tuple[str, ...], Report]]):
    """One CSV row per check, led by its report's cells; a block's rows
    are made from its names as they are written."""
    for cells, r in reports:
        for item in r.items:
            for name in item.names():
                yield [*cells, name, item.status, item.detail]


# -- family selection ---------------------------------------------------------

# The fermionic realizations take no --j and give a (tensorop family,
# factorization family) pair; the others build their family from --j.  The
# builders look their functions up when called, so a rebound module name
# (as perfbench/tracer.py does) takes effect.
_FAMILIES = {
    "fermion-a": (lambda: fermion_realization()[1],
                  lambda: fermion_wigner_families()[0]),
    "fermion-b": (lambda: fermion_realization()[2],
                  lambda: fermion_wigner_families()[1]),
    "boson-raising": lambda j: boson_raising_family(j),
    "boson-lowering": lambda j: boson_lowering_family(j),
    "rank1": lambda j: rank1_generators(j),
    "identity": lambda j: identity_family(j),
}
REALIZATIONS = tuple(_FAMILIES)


def _family(realization: str, j: HalfInt | None,
            for_factorization: bool) -> TensorOpFamily:
    build = _FAMILIES[realization]
    fermionic = isinstance(build, tuple)
    if not fermionic and j is None:
        raise ValueError(f"--j is required for realization {realization!r}")
    if fermionic and j is not None:
        raise ValueError(f"--j does not apply to realization {realization!r}")
    return build[for_factorization]() if fermionic else build(j)


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
    return [_timed(fn, j) for j in _spin_range(half(0), max_j)
            for fn in (verify_defining_relations, verify_casimir,
                       verify_hopf_axioms)]


def _coupling_suite(max_j: HalfInt) -> list[Report]:
    spins = _spin_range(half(1, 2), max_j)
    return [_timed(fn, j1, j2) for j1 in spins for j2 in spins
            for fn in (verify_alpha_orthogonality,
                       verify_intermediate_orthonormality,
                       verify_intermediate_action, _decompose_report)]


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


def _factorization_reports(fam: TensorOpFamily, label: str) -> list[Report]:
    """The three reports on the factorization of one family's matrix
    elements."""
    return [_timed(fn, fam, label=label) for fn in
            (verify_phi_recurrence, verify_overlap_recurrence,
             verify_wigner_eckart)]


def _wigner_suite(max_j: HalfInt) -> list[Report]:
    reports = []
    fam_a, fam_b = fermion_wigner_families()
    for fam, tag in ((fam_a, "fermion A"), (fam_b, "fermion B")):
        reports += _factorization_reports(fam, f"({tag})")
    for j in _spin_range(half(0), max_j):
        reports += _factorization_reports(boson_raising_family(j),
                                          f"(boson raising, spin {j})")
        if j.twice >= 1:
            for fam, tag in ((boson_lowering_family(j), "boson lowering"),
                             (rank1_generators(j), "rank-1 generator family")):
                reports.append(_timed(verify_wigner_eckart, fam,
                                      label=f"({tag}, spin {j})"))
    reports.append(_timed(verify_wigner_eckart, identity_family(max_j),
                          label=f"(identity family, spin {max_j})"))
    report = Report("selection rule at spin 0")
    all_zero = all(t.is_zero for t in rank1_generators(0).components)
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
    }
    if args.gen == "casimir":  # built on first request, then kept
        mats["casimir"] = casimir_matrix(j)
    names = [args.gen] if args.gen else ["X", "Y", "H"]
    weights = list(weight_texts(j))
    return _render_matrices(
        args, f"spin {j} module, dimension {rep.dim}, weights "
              f"{' '.join(weights)}",
        {"j": str(j), "dim": rep.dim, "weights": weights},
        {name: _maybe_eval(mats[name], args.h_eval) for name in names})


def _cmd_alpha(args) -> int:
    j1, j2 = args.j1, args.j2
    table = alpha_table(j1, j2)
    indices = {"--k1": args.k1, "--k2": args.k2, "--m1": args.m1,
               "--m2": args.m2}
    missing = [opt for opt, v in indices.items() if v is None]
    if 0 < len(missing) < len(indices):
        raise ValueError(f"--k1, --k2, --m1 and --m2 go together; missing "
                         f"{', '.join(missing)}")
    meta = {"j1": str(j1), "j2": str(j2)}
    columns, line = ("k1", "k2", "m1", "m2", "value"), "alpha[{},{}; {},{}] = {}"
    if not missing:
        labels = (args.k1, args.k2, args.m1, args.m2)
        return _render_rows(args, meta, columns,
                            [(*labels, table.value(*labels))], line=line,
                            key=None)
    texts = product_label_texts(j1, j2)  # column by column, as K's columns
    entries = [(*texts[r], *texts[c], p)
               for c, column in enumerate(zip(*table.ket.entries))
               for r, p in enumerate(column) if p]
    return _render_rows(args, meta, columns, entries, line=line,
                        title=f"alpha table for the pair ({j1}, {j2}); "
                              f"{len(entries)} nonzero entries")


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
    texts = ([(str(args.k1), str(args.k2))] if single
             else product_label_texts(j1, j2))
    # Entries of memoized matrices, each read from its storage.
    if kind == "classical":  # C's spin-j column of weight m = k1 + k2
        top = coupled_index(j1, j2, j, j)
        rows = [product_weight_index(j1, j2, *k) for k in labels]  # may raise
        c, zero = cgc_matrix(j1, j2), HPoly.zero()
        values = [c.entry(r, top + (j.twice - k1.twice - k2.twice) // 2)
                  if abs(k1.twice + k2.twice) <= j.twice else zero
                  for r, (k1, k2) in zip(rows, labels)]
    elif single:
        values = [(uh_cgc_bra if args.bra else uh_cgc)(j1, j2, j, *labels[0], m)]
    else:  # the row <j m| of C^T B, or the column |j m> of K C
        table, at = alpha_table(j1, j2), coupled_index(j1, j2, j, m)
        if kind == "bra":
            bras = table.coupled_bras
            values = [bras.entry(at, k) for k in range(bras.cols)]
        else:
            kets = table.coupled
            values = [kets.entry(k, at) for k in range(kets.rows)]
    m_text = str(args.m) if args.m is not None else "k1+k2"
    return _render_rows(
        args, {"j1": str(j1), "j2": str(j2), "j": str(j), "m": m_text,
               "kind": kind}, ("k1", "k2", "value"),
        [(k1, k2, v) for (k1, k2), v in zip(texts, values) if v or single],
        title=f"{kind} coupling coefficients ({j1}, {j2}) -> {j}, m = {m_text}",
        line="[{}, {}] = {}")


def _cmd_decompose(args) -> int:
    summands = decompose(args.j1, args.j2)
    text = " + ".join(str(j) for j, _ in summands)
    return _render_rows(
        args, {"j1": str(args.j1), "j2": str(args.j2)}, ("j", "multiplicity"),
        summands, key="summands",
        title=f"{args.j1} (x) {args.j2} = {text}   (certified by the coupled "
              f"Casimir)")


def _cmd_tensorop(args) -> int:
    fam = _family(args.realization, args.j, for_factorization=False)
    meta = {"realization": args.realization, "rank": str(fam.rank)}
    if args.j is not None:
        meta["j"] = str(args.j)
    return _render_matrices(
        args, f"rank {fam.rank} family ({args.realization})", meta,
        {str(args.m): _maybe_eval(fam.component(args.m), args.h_eval)}
        if args.m is not None else
        {m: _maybe_eval(t, args.h_eval)
         for m, t in zip(weight_texts(fam.rank), fam.components)},
        key="components", column="component", label="t[{}]")


def _cmd_wigner_eckart(args) -> int:
    fam = _family(args.realization, args.j, for_factorization=True)
    source, target = fam.ctx.source_j, fam.ctx.target_j
    if not triangle_allowed(fam.rank, source, target):
        raise SelectionRuleError(
            f"rank {fam.rank} cannot connect spin {source} to spin {target}")
    reports = _factorization_reports(fam, f"({args.realization})")
    meta = {"realization": args.realization}
    if args.j is not None:
        meta["j"] = str(args.j)

    def text():
        lines = []
        for r in reports:
            counts = r.counts()
            lines.append(f"== {r.suite}: {counts['pass']} passed, "
                         f"{counts['fail']} failed")
            lines += ["  " + line for line in r.lines(passing=args.verbose)]
        return lines + [str(reduced_matrix_element(fam))]

    return _render_reports(args, meta, "reports", ("suite",),
                           [((r.suite,), r) for r in reports], text)


def _cmd_verify(args) -> int:
    dim_of(args.max_j)  # raises for a negative spin before any suite runs
    if args.suite == "coupling" and args.max_j.twice < 1:
        raise ValueError("the coupling suite couples spins from 1/2 up: "
                         "it needs --max-j 1/2 or more")
    reports = [((name, r.suite), r) for name, fn in SUITES
               if args.suite in (None, name) for r in fn(args.max_j)]

    def text():
        lines, current = [], None
        total = {"pass": 0, "fail": 0, "skip": 0}
        for (name, _), r in reports:
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
                lines += ["    " + line for line in r.lines(passing=args.verbose)
                          if args.verbose or line.startswith("FAIL")]
            lines += ["    NOTE " + n for n in r.notes]
        verdict = ("all checks passed" if all(r.ok for _, r in reports)
                   else "CHECKS FAILED")
        return lines + [f"{verdict}: {total['pass']} passed, {total['fail']} "
                        f"failed, {total['skip']} skipped"]

    return _render_reports(args, {"max_j": str(args.max_j)}, "suites",
                           ("suite", "report"), reports, text)


# -- parser --------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jordanian",
        description="Exact representation theory of the Jordanian quantum "
                    "algebra: modules, coupling coefficients, tensor "
                    "operators, and verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, h_eval=False):
        p.add_argument("--format", choices=FORMATS, default=None,
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

    p = sub.add_parser("alpha",
                       help="product-to-intermediate transition table")
    p.add_argument("--j1", type=_spin, required=True)
    p.add_argument("--j2", type=_spin, required=True)
    p.add_argument("--k1", type=_spin)
    p.add_argument("--k2", type=_spin)
    p.add_argument("--m1", type=_spin)
    p.add_argument("--m2", type=_spin)
    common(p)

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

    p = sub.add_parser("decompose",
                       help="decompose a product of two modules")
    p.add_argument("--j1", type=_spin, required=True)
    p.add_argument("--j2", type=_spin, required=True)
    common(p)

    p = sub.add_parser("tensorop", help="components of one operator family")
    p.add_argument("--realization", choices=REALIZATIONS, required=True)
    p.add_argument("--j", type=_spin, help="module spin (all realizations "
                                           "except the fermionic ones)")
    p.add_argument("--m", type=_spin, help="one component")
    common(p, h_eval=True)

    p = sub.add_parser("wigner-eckart",
                       help="verify the factorization of matrix elements "
                            "for one family")
    p.add_argument("--realization", choices=REALIZATIONS, required=True)
    p.add_argument("--j", type=_spin)
    p.add_argument("--verbose", action="store_true",
                   help="print passing checks too")
    common(p)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--max-j", type=_spin, default=half(2),
                   help="largest spin to cover (default 2)")
    p.add_argument("--suite", choices=[name for name, _ in SUITES],
                   help="run a single suite")
    p.add_argument("--verbose", action="store_true",
                   help="print every check line")
    common(p)
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


@lru_cache(maxsize=None)
def _kept_parser() -> tuple[argparse.ArgumentParser,
                            dict[str, argparse.ArgumentParser]]:
    """The parser main() reuses and its subcommand parsers by name: built on
    the first call, not at import."""
    parser = build_parser()
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    return parser, commands


class _OptionTable:
    """The options of one command parser, read off its actions: per option
    string the action's position, dest, type, choices and whether it is a
    flag; the defaults, the positions of the required actions and of each
    mutually exclusive group.  It holds no action, which would lead back to
    its parser.  parse() gives the namespace argparse gives for an argv it
    can take and None for any other, which argparse then parses."""
    __slots__ = ("options", "defaults", "required", "groups")

    def __init__(self, options, defaults, required, groups):
        self.options, self.defaults = options, defaults
        self.required, self.groups = required, groups

    @classmethod
    def read(cls, parser: argparse.ArgumentParser) -> _OptionTable | None:
        """The table of parser, or None when the table cannot mirror it:
        an action other than help, a one-value store or store True, a
        positional, a string default with a type, parser defaults or a
        required group."""
        options, defaults, required = {}, {}, set()
        position = {action: n for n, action in enumerate(parser._actions)}
        for action, n in position.items():
            if type(action) is argparse._HelpAction:
                continue  # -h and --help are left to argparse
            flag = type(action) is argparse._StoreTrueAction
            if (not action.option_strings
                    or not flag and (type(action) is not argparse._StoreAction
                                     or action.nargs is not None)
                    or isinstance(action.default, str) and action.type):
                return None
            for option in action.option_strings:
                options[option] = (n, action.dest, action.type,
                                   action.choices, flag)
            if action.default is not argparse.SUPPRESS:
                defaults[action.dest] = action.default
            if action.required:
                required.add(n)
        groups = parser._mutually_exclusive_groups
        if parser._defaults or any(g.required for g in groups):
            return None
        return cls(options, defaults, frozenset(required),
                   [frozenset(map(position.get, g._group_actions))
                    for g in groups])

    def parse(self, command: str,
              argv: list[str]) -> argparse.Namespace | None:
        """The namespace argparse gives the command's options argv once
        _merge_negative_values has merged them, or None unless every token
        is an exact option string with an acceptable value, no required
        option is missing and no group has two options.  A value may start
        with "-" in the --opt=value form (but not be "--"), or in the
        --opt value form where the merge would merge it: a negative number
        after a value option."""
        values, seen, i = {}, set(), 0
        while i < len(argv):
            token = argv[i]
            entry = self.options.get(token)
            if entry is None:  # --opt=value, never on a flag
                option, eq, value = token.partition("=")
                entry = self.options.get(option) if eq else None
                # argparse may strip a "--" value, leaving none.
                if entry is None or entry[4] or value == "--":
                    return None
            elif not entry[4]:  # --opt value
                i += 1
                if i == len(argv) or argv[i][:1] == "-" and not (
                        token in _VALUE_OPTIONS and _NEGATIVE_VALUE.match(argv[i])):
                    return None
                value = argv[i]
            n, dest, kind, choices, flag = entry
            if flag:
                value = True
            elif kind is not None:
                try:
                    value = kind(value)
                except (argparse.ArgumentTypeError, TypeError, ValueError):
                    return None
            if choices is not None and value not in choices:
                return None
            values[dest] = value
            seen.add(n)
            i += 1
        if not self.required <= seen or any(len(g & seen) > 1
                                            for g in self.groups):
            return None
        args = argparse.Namespace(**self.defaults)
        args.command = command
        vars(args).update(values)
        return args


# Each command parser's table, dropped with the parser.
_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _option_table(command: argparse.ArgumentParser) -> _OptionTable | None:
    try:
        return _TABLES[command]
    except KeyError:
        table = _TABLES[command] = _OptionTable.read(command)
        return table


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = _kept_parser()
    # A well-formed request is parsed by its command's option table.  Any
    # other (help, a usage error, an abbreviated option) goes to the full
    # parser, which gives all help, usage and error text.
    command = commands.get(argv[0]) if argv else None
    table = command and _option_table(command)
    args = table and table.parse(argv[0], argv[1:])
    if args is None:
        args = parser.parse_args(_merge_negative_values(argv))
    if args.format is None:
        args.format = os.environ.get("JORDANIAN_FORMAT", "pretty")
        if args.format not in FORMATS:
            args.format = "pretty"
    # Looked up when called, so a rebound handler name (as perfbench/tracer.py
    # makes) takes effect.
    handler = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except (ValueError, KeyError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
