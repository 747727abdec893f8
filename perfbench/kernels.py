"""Layer kernels: fixed inputs built from the public API, timed cold and warm.

Each kernel runs in a fresh worker.  The first call is the cold time; the
median of ``WARM_REPEATS`` further calls is the warm time.  ``ops`` is the
exact operation count of one call, in the kernel's own unit (NOTES.md).
"""

from __future__ import annotations

import statistics
import time

from tracer import entry_products

KERNELS = ("radscalar_add", "radscalar_mul", "hpoly_mul", "matmul_25",
           "matmul_49", "kron_25", "kron_49", "alpha_table_33",
           "coupled_ladder_33", "sl2_cgc_sweep")

WARM_REPEATS = 3


def _nonzero_entries(*mats):
    return [p for m in mats for row in m.entries for p in row if p]


def _nnz(m) -> int:
    return sum(1 for row in m.entries for p in row if p)


def prepare(name: str):
    """(call, ops) for one kernel; inputs are built here, outside timing."""
    from jordanian import (alpha_table, coproduct_gens, coupled_ladder, half,
                           irrep, kron, sl2_cgc, weight_range)

    if name in ("radscalar_add", "radscalar_mul", "hpoly_mul"):
        rep = irrep(3)
        polys = _nonzero_entries(rep.x, rep.y, rep.exp_hx)
        if name == "hpoly_mul":
            pairs = [(a, b) for a in polys for b in polys]

            def call():
                for a, b in pairs:
                    a * b
            return call, len(pairs)
        scalars = [c for p in polys for c in p.coeffs if c]
        pairs = [(a, b) for a in scalars for b in scalars]
        if name == "radscalar_add":
            def call():
                for a, b in pairs:
                    a + b
        else:
            def call():
                for a, b in pairs:
                    a * b
        return call, len(pairs)

    if name in ("matmul_25", "matmul_49", "kron_25", "kron_49"):
        j = 2 if name.endswith("25") else 3
        g = irrep(j).gens()
        if name.startswith("matmul"):
            gg = coproduct_gens(g, g)
            a, b = gg.y, gg.ep
            return (lambda: a @ b), entry_products(a, b)
        a, b = g.y, g.ep
        return (lambda: kron(a, b)), _nnz(a) * _nnz(b)

    if name == "alpha_table_33":
        return (lambda: alpha_table(3, 3)), 7 ** 4

    if name == "coupled_ladder_33":
        # Counted after timing, so the cold call still builds irrep(3).
        return (lambda: coupled_ladder(3, 3)), None

    if name == "sl2_cgc_sweep":
        spins = [half(t, 2) for t in range(1, 7)]
        args = [(j1, j2, j, m1, m2)
                for j1 in spins for j2 in spins
                for j in (half(t, 2) for t in range(abs(j1.twice - j2.twice),
                                                     j1.twice + j2.twice + 1, 2))
                for m1 in weight_range(j1) for m2 in weight_range(j2)
                if abs((m1 + m2).twice) <= j.twice]

        def call():
            for a in args:
                sl2_cgc(*a)
        return call, len(args)

    raise ValueError(f"unknown kernel {name!r}")


def _count_matmuls(call) -> int:
    from jordanian.polymatrix import PolyMatrix
    original = PolyMatrix.__matmul__
    calls = [0]

    def counting(a, b):
        calls[0] += 1
        return original(a, b)
    PolyMatrix.__matmul__ = counting
    try:
        call()
    finally:
        PolyMatrix.__matmul__ = original
    return calls[0]


def run(name: str) -> dict:
    call, ops = prepare(name)
    start = time.perf_counter()
    call()
    cold = time.perf_counter() - start
    warm = []
    for _ in range(WARM_REPEATS):
        start = time.perf_counter()
        call()
        warm.append(time.perf_counter() - start)
    if ops is None:
        ops = _count_matmuls(call)
    return {"cold_s": cold, "warm_s": statistics.median(warm), "ops": ops}
