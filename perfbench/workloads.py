"""The inputs of each workload: argv lists for ``jordanian.cli.main``.

``verify-pairs`` and ``verify-modules`` are fixed.  ``queries`` draws a
seeded stream from a finite request universe, so every request the stream
can contain has an output digest recorded in ``expected.json``.  Only the
generated argv lists reach the program.
"""

from __future__ import annotations

import random

WORKLOADS = ("verify-pairs", "verify-modules", "queries")

SUITES = ("uh-algebra", "coupling", "tensor-ops", "wigner-eckart")

# verify argv per workload and size; "--format json --out <file>" is added
# by the worker.
VERIFY_ARGS = {
    "verify-pairs": {
        "full": [["verify", "--max-j", "5/2"]],
        "smoke": [["verify", "--max-j", "1"]],
    },
    "verify-modules": {
        size: [["verify", "--suite", suite, "--max-j", max_j]
               for suite in ("uh-algebra", "tensor-ops", "wigner-eckart")]
        for size, max_j in (("full", "7/2"), ("smoke", "1"))
    },
}

QUERY_COUNT = {"full": 1500, "smoke": 50}

# Request mix of the queries stream: (command, weight).  The weights are
# unverified: no measured traffic exists.  cgc is largest because it has
# three kinds (ket, bra, --classical).
COMMAND_MIX = (("irrep", 20), ("alpha", 15), ("cgc", 40), ("tensorop", 15),
               ("decompose", 10))
FORMAT_MIX = (("pretty", 2), ("json", 2), ("csv", 1))


def spin_text(twice: int) -> str:
    return str(twice // 2) if twice % 2 == 0 else f"{twice}/2"


def weights(twice: int) -> list[str]:
    """Weights j, j-1, ..., -j of the spin with doubled value ``twice``."""
    return [spin_text(t) for t in range(twice, -twice - 2, -2)]


SPINS = range(0, 7)          # doubled: spins 0 .. 3
PAIR_SPINS = range(1, 6)     # doubled: spins 1/2 .. 5/2
DECOMPOSE_SPINS = range(1, 4)  # doubled: spins 1/2 .. 3/2


def request_universe() -> dict[str, list[tuple[tuple, list[str]]]]:
    """Every request the queries stream can send, without its format.

    Maps a command to its (key, argv) entries.  The key names the command
    and its spins; requests that share a key share the program's memos.
    """
    s = spin_text
    universe: dict[str, list[tuple[tuple, list[str]]]] = {
        name: [] for name, _ in COMMAND_MIX}
    for j in SPINS:
        for gen in (None, "Y", "expHX", "casimir"):
            universe["irrep"].append(
                (("irrep", j), ["irrep", "--j", s(j)]
                 + (["--gen", gen] if gen else [])))
    for j1 in PAIR_SPINS:
        for j2 in PAIR_SPINS:
            pair = ["--j1", s(j1), "--j2", s(j2)]
            universe["alpha"].append((("alpha", j1, j2), ["alpha", *pair]))
            universe["alpha"].append(
                (("alpha", j1, j2),
                 ["alpha", *pair, "--k1", s(j1), "--k2", s(j2),
                  "--m1", s(-j1), "--m2", s(-j2)]))
            for j in range(j1 + j2, abs(j1 - j2) - 1, -2):
                key = ("cgc", j1, j2, j)
                base = ["cgc", *pair, "--j", s(j)]
                universe["cgc"].append((key, base + ["--classical"]))
                for m in weights(j):
                    universe["cgc"].append((key, base + ["--m", m]))
                    universe["cgc"].append((key, base + ["--m", m, "--bra"]))
    for realization in ("fermion-a", "fermion-b"):
        universe["tensorop"].append(
            (("tensorop", realization),
             ["tensorop", "--realization", realization]))
    for j in SPINS:
        for realization in ("boson-raising", "identity", "boson-lowering",
                            "rank1"):
            if j == 0 and realization in ("boson-lowering", "rank1"):
                continue
            universe["tensorop"].append(
                (("tensorop", realization, j),
                 ["tensorop", "--realization", realization, "--j", s(j)]))
    for j1 in DECOMPOSE_SPINS:
        for j2 in DECOMPOSE_SPINS:
            universe["decompose"].append(
                (("decompose", j1, j2),
                 ["decompose", "--j1", s(j1), "--j2", s(j2)]))
    return universe


def all_requests() -> list[list[str]]:
    """The universe with every format: the argv lists digests exist for."""
    return [argv + ["--format", fmt]
            for entries in request_universe().values()
            for _, argv in entries
            for fmt, _ in FORMAT_MIX]


def query_stream(seed: int, count: int) -> list[tuple[tuple, list[str]]]:
    """``count`` (key, argv) requests drawn with ``seed``; same seed, same
    stream.

    The mix is stratified: each command gets its share of ``count``, and
    its keys are dealt round-robin in a seeded order, so every seed makes
    the same amount of work per key.  The seed picks the options, formats
    and request order.
    """
    rng = random.Random(seed)
    universe = request_universe()
    total_weight = sum(w for _, w in COMMAND_MIX)
    formats = [name for name, _ in FORMAT_MIX]
    format_weights = [w for _, w in FORMAT_MIX]
    stream = []
    assigned = 0
    for i, (command, weight) in enumerate(COMMAND_MIX):
        n = (count - assigned if i == len(COMMAND_MIX) - 1
             else round(count * weight / total_weight))
        assigned += n
        by_key: dict[tuple, list[list[str]]] = {}
        for key, argv in universe[command]:
            by_key.setdefault(key, []).append(argv)
        keys = list(by_key)
        rng.shuffle(keys)
        for k in range(n):
            key = keys[k % len(keys)]
            argv = rng.choice(by_key[key])
            fmt = rng.choices(formats, format_weights)[0]
            stream.append((key, argv + ["--format", fmt]))
    rng.shuffle(stream)
    return stream


def request_key(argv: list[str]) -> tuple[str, ...]:
    """A request without its output format: command, spins and weights."""
    return tuple(argv[:argv.index("--format")])


def repeat_share(keys) -> float:
    """Share of ``keys`` that occurred earlier in the sequence."""
    seen = set()
    repeats = total = 0
    for key in keys:
        repeats += key in seen
        seen.add(key)
        total += 1
    return repeats / total
