"""Per-layer tracing of ``jordanian``, applied from outside the package.

``Tracer.install()`` wraps functions and methods of every
``jordanian`` module and rebinds each wrapped name in every module that
imported it (``coupling`` imports ``irrep`` by name, ``cli`` imports most
of the library by name).  No file of the package changes.

Two kinds of wrapper:

* counters, for the scalar layers (``halfint``, ``radical``, ``hpoly``) and
  for hot lookups (``AlphaTable.value``, ``Report.add``,
  ``scalar_to_json``).  These see millions of calls, so only the named
  operations are counted.
* spans, for every public function and method of the layers above.  A
  span is (name, start, end, parent), kept in flat arrays and written out
  when the run ends.  Self time is a span's duration minus its child
  spans.

Calls of memoized constructions (``irrep``, ``alpha_table``, ``sl2_cgc``,
``coproduct_gens`` and the operator-family constructors) are keyed by
their arguments.  The first call of each key is construction; everything
else is checking.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict
from fractions import Fraction

SCALAR_COUNTERS = {
    # (module, class, attribute) -> metric name
    ("halfint", "HalfInt", "__hash__"): "halfint.hash",
    ("radical", "RadScalar", "__add__"): "radical.add",
    ("radical", "RadScalar", "__radd__"): "radical.add",
    ("radical", "RadScalar", "__mul__"): "radical.mul",
    ("radical", "RadScalar", "__rmul__"): "radical.mul",
    ("radical", None, "sqrt_factorial_ratio"): "radical.sqrt_factorial_ratio",
    ("hpoly", "HPoly", "__add__"): "hpoly.add",
    ("hpoly", "HPoly", "__radd__"): "hpoly.add",
    ("hpoly", "HPoly", "__mul__"): "hpoly.mul",
    ("hpoly", "HPoly", "__rmul__"): "hpoly.mul",
    ("coupling", "AlphaTable", "value"): "coupling.AlphaTable.value",
    ("report", "Report", "add"): "report.add",
    ("serialize", None, "scalar_to_json"): "serialize.scalar_to_json",
}

SPAN_MODULES = ("polymatrix", "irreps", "coupling", "tensorops", "wigner",
                "serialize", "cli")

# Operators that count as public methods.
OPERATORS = {"__add__": "add", "__radd__": "add", "__sub__": "sub",
             "__rsub__": "sub", "__mul__": "mul", "__rmul__": "mul",
             "__matmul__": "matmul", "__truediv__": "truediv",
             "__neg__": "neg"}

# The class whose methods are named after the module alone
# (polymatrix.matmul rather than polymatrix.PolyMatrix.matmul).
MODULE_CLASS = {"polymatrix": "PolyMatrix"}

CONSTRUCTIONS = ("irreps.irrep", "coupling.alpha_table", "coupling.sl2_cgc",
                 "irreps.coproduct_gens", "tensorops.boson_raising_family",
                 "tensorops.boson_lowering_family",
                 "tensorops.rank1_generators", "tensorops.identity_family",
                 "tensorops.fermion_realization",
                 "tensorops.fermion_wigner_families",
                 "tensorops.fermion_modes", "tensorops.couple_tensor_ops",
                 "tensorops.boson_realization")

CLI_HANDLERS = ("_cmd_irrep", "_cmd_alpha", "_cmd_cgc", "_cmd_decompose",
                "_cmd_tensorop", "_cmd_wigner_eckart", "_cmd_verify")


def _arg_key(value):
    """A hashable key for one argument that calls no traced code.

    Spins are keyed by their doubled value, whatever type they come in;
    other objects by identity (memoized objects stay alive, so this is
    stable within a run).
    """
    twice = getattr(value, "twice", None)
    if isinstance(twice, int):
        return twice
    if isinstance(value, bool):
        return ("b", value)
    if isinstance(value, int):
        return 2 * value
    if isinstance(value, Fraction):
        return ("q", value.numerator, value.denominator)
    if isinstance(value, str):
        return ("s", value)
    x = getattr(value, "x", None)  # GenMatrices: keyed by its X matrix
    return id(x) if x is not None else id(value)


def _call_key(args):
    return tuple(_arg_key(a) for a in args)


def entry_products(a, b) -> int:
    """Nonzero-by-nonzero entry multiplications of the matmul a @ b."""
    col_nnz = [0] * a.cols
    for row in a.entries:
        for k, p in enumerate(row):
            if p:
                col_nnz[k] += 1
    return sum(n * sum(1 for p in brow if p)
               for n, brow in zip(col_nnz, b.entries) if n)


class Tracer:
    """Counters and spans for one traced pass."""

    def __init__(self):
        self.cells: dict[str, list[int]] = defaultdict(lambda: [0])
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.depth: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_outer = array("b")  # no enclosing span of the same name
        self.stack: list[int] = []
        self.first_calls: dict[str, list[int]] = defaultdict(list)
        self.keys: dict[str, set] = defaultdict(set)
        self.hpoly_slots = [0, 0]      # nonzero coefficient pairs, all pairs
        self.matmul_work = [0, 0]      # nonzero products, rows*inner*cols

    # -- wrappers -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.depth.append(0)
        return self.name_ids[name]

    def counter(self, fn, name):
        cell = self.cells[name + ".calls"]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def hpoly_mul_counter(self, fn, name):
        cell = self.cells[name + ".calls"]
        slots = self.hpoly_slots

        @functools.wraps(fn)
        def wrapper(self_, other):
            cell[0] += 1
            a = self_.coeffs
            b = getattr(other, "coeffs", None)
            if b is None:       # a rational or RadScalar factor: one slot
                b = (other,)
            slots[0] += sum(1 for c in a if c) * sum(1 for c in b if c)
            slots[1] += len(a) * len(b)
            return fn(self_, other)
        return wrapper

    def span(self, fn, name, keyed=False):
        name_id = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, outer = self.span_start, self.span_end, self.span_outer
        stack, depth = self.stack, self.depth
        firsts, seen = self.first_calls[name], self.keys[name]
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            if keyed:
                key = _call_key(args)
                if key not in seen:
                    seen.add(key)
                    firsts.append(i)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            d = depth[name_id]
            outer.append(d == 0)
            depth[name_id] = d + 1
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
                depth[name_id] = d
        return wrapper

    def matmul_span(self, fn, name):
        inner = self.span(fn, name)
        work = self.matmul_work

        @functools.wraps(fn)
        def wrapper(a, b):
            if hasattr(b, "entries") and a.cols == b.rows:
                work[0] += entry_products(a, b)
                work[1] += a.rows * a.cols * b.cols
            return inner(a, b)
        return wrapper

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Wrap the package in place; call once per process, before the
        timed section."""
        import jordanian
        from jordanian import cli

        modules = {name: sys.modules[f"jordanian.{name}"]
                   for name in ("halfint", "radical", "hpoly", "polymatrix",
                                "irreps", "coupling", "tensorops", "wigner",
                                "report", "serialize", "cli")}
        replaced: dict[int, object] = {}

        for (mod_name, cls_name, attr), metric in SCALAR_COUNTERS.items():
            owner = modules[mod_name]
            if cls_name is not None:
                owner = getattr(owner, cls_name)
            fn = owner.__dict__[attr] if cls_name else getattr(owner, attr)
            if metric == "hpoly.mul":
                wrapped = self.hpoly_mul_counter(fn, metric)
            else:
                wrapped = self.counter(fn, metric)
            setattr(owner, attr, wrapped)
            if cls_name is None:
                replaced[id(fn)] = wrapped

        counted = {(m, c, a) for m, c, a in SCALAR_COUNTERS}
        for mod_name in SPAN_MODULES:
            module = modules[mod_name]
            for attr, value in list(vars(module).items()):
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value) and not attr.startswith("_"):
                    if (mod_name, None, attr) in counted:
                        continue
                    name = f"{mod_name}.{attr}"
                    wrapped = self.span(value, name,
                                        keyed=name in CONSTRUCTIONS)
                    replaced[id(value)] = wrapped
                elif inspect.isclass(value):
                    self._wrap_class(mod_name, value, counted)

        for attr in CLI_HANDLERS:
            fn = getattr(cli, attr)
            replaced[id(fn)] = self.span(fn, "cli.handler")
        suites = []
        for suite_name, fn in cli.SUITES:
            wrapped = self.span(fn, f"cli.suite.{suite_name}")
            replaced[id(fn)] = wrapped
            suites.append((suite_name, wrapped))
        cli.SUITES = tuple(suites)

        for module in (jordanian, *modules.values()):
            for attr, value in list(vars(module).items()):
                wrapped = replaced.get(id(value))
                if wrapped is not None:
                    setattr(module, attr, wrapped)

    def _wrap_class(self, mod_name, cls, counted) -> None:
        prefix = mod_name if MODULE_CLASS.get(mod_name) == cls.__name__ \
            else f"{mod_name}.{cls.__name__}"
        for attr, raw in list(vars(cls).items()):
            if (mod_name, cls.__name__, attr) in counted:
                continue
            if attr in OPERATORS:
                label = OPERATORS[attr]
            elif attr.startswith("_"):
                continue
            else:
                label = attr
            name = f"{prefix}.{label}"
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self.span(raw.__func__, name))
            elif inspect.isfunction(raw):
                wrapped = (self.matmul_span(raw, name) if label == "matmul"
                           else self.span(raw, name))
            else:
                continue  # properties and plain attributes
            setattr(cls, attr, wrapped)

    # -- results ------------------------------------------------------------------

    def span_table(self):
        """Per name: calls, inclusive seconds (outermost spans only) and
        self seconds."""
        n = len(self.span_name)
        child = [0] * n
        parents, starts, ends = self.span_parent, self.span_start, self.span_end
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        total = [0] * len(self.names)
        own = [0] * len(self.names)
        for i, name_id in enumerate(self.span_name):
            dur = ends[i] - starts[i]
            calls[name_id] += 1
            own[name_id] += dur - child[i]
            if self.span_outer[i]:
                total[name_id] += dur
        return {name: (calls[k], total[k] / 1e9, own[k] / 1e9)
                for k, name in enumerate(self.names)}

    def first_call_seconds(self, name: str) -> float:
        return sum(self.span_end[i] - self.span_start[i]
                   for i in self.first_calls.get(name, ())) / 1e9

    def construction(self) -> tuple[float, dict[str, float]]:
        """Seconds of outermost first-call construction spans, in total and
        per enclosing verify suite."""
        marked = set()
        for name in CONSTRUCTIONS:
            marked.update(self.first_calls.get(name, ()))
        suite_ids = {self.name_ids[n]: n.removeprefix("cli.suite.")
                     for n in self.names if n.startswith("cli.suite.")}
        total = 0
        per_suite: dict[str, float] = defaultdict(float)
        for i in marked:
            p = self.span_parent[i]
            suite = None
            nested = False
            while p >= 0:
                if p in marked:
                    nested = True
                    break
                suite = suite_ids.get(self.span_name[p], suite)
                p = self.span_parent[p]
            if nested:
                continue
            dur = (self.span_end[i] - self.span_start[i]) / 1e9
            total += dur
            if suite is not None:
                per_suite[suite] += dur
        return total, dict(per_suite)

    def count(self, metric: str) -> int:
        return self.cells[metric][0] if metric in self.cells else 0

    def distinct(self, name: str) -> int:
        return len(self.keys.get(name, ()))

    def write_spans(self, path) -> None:
        """One line per span: name, start_ns, end_ns, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\n")
            for i, name_id in enumerate(self.span_name):
                fh.write(f"{self.names[name_id]}\t{self.span_start[i]}\t"
                         f"{self.span_end[i]}\t{self.span_parent[i]}\n")
