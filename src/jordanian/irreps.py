"""Finite-dimensional irreps of the Jordanian quantum algebra U_h(sl(2)).

The algebra has generators X, Y, H with relations

    [X, Y] = H
    [H, X] = 2 sinh(hX)/h
    [H, Y] = -(Y cosh(hX) + cosh(hX) Y)

and a triangular Hopf structure in which X is primitive and Y, H coproducts
are twisted by the group-like e^{hX}.  Representations are built from the
classical spin-j ladder through the invertible nonlinear change of
generators

    Zp = (2/h) tanh(hX/2),          Zm = cosh(hX/2) Y cosh(hX/2),

whose inverse is X = (2/h) arctanh(h Zp / 2) and
Y = sqrt(1 - (h Zp/2)^2) Zm sqrt(1 - (h Zp/2)^2).  On a finite ladder Zp is
nilpotent, so every series below terminates and all matrices are exact
polynomials in h.

Basis convention: weights are ordered m = j, j-1, ..., -j, which makes Zp
(and X) strictly upper triangular.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial, isqrt, lcm

from .halfint import (HalfInt, as_half, casimir_eigenvalue, dim_of, spin_memo,
                      weight_range)
from .hpoly import HPoly
from .polymatrix import (PolyMatrix, _msum, _natural, _unit_like, exp_nilpotent,
                         kron, lincomb, power_series)
from .radical import RadScalar, falling_binomial
from .record import Frozen, Record
from .report import Check, Report, zero_check


class Generator(enum.Enum):
    """Labels for the algebra elements with defined coproducts."""

    X = "X"
    Y = "Y"
    H = "H"
    UNIT = "1"
    EXP_HX = "expHX"
    EXP_MHX = "expmHX"


def ladder_factor(j: HalfInt, m: HalfInt, sign: int) -> RadScalar:
    """sqrt((j -+ m)(j +- m + 1)): the Zp/Zm matrix element taking m to m+sign."""
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +-1, got {sign}")
    if abs(m.twice) > j.twice or abs((m + sign).twice) > j.twice:
        return RadScalar.zero()
    a = (j - m).as_int() if sign > 0 else (j + m).as_int()
    b = (j + m).as_int() + 1 if sign > 0 else (j - m).as_int() + 1
    return RadScalar.sqrt(a * b)


@lru_cache(maxsize=None)
def _slot_gauges(n: int) -> tuple[tuple[int, int], ...]:
    """(p, s) per position c = j - m of one spin, n = 2j: c! (n-c)! = s^2 p,
    p squarefree (the radical of its ladder label), so d(c) = s sqrt(p)."""
    return tuple((p, isqrt(factorial(c) * factorial(n - c) // p))
                 for c, (_, p) in enumerate(_natural(n + 1)))


def _ladder_map(den: int, rows, nt: int, ns: int, shift: int = 0) -> PolyMatrix:
    """D_t (R / den) D_s^-1 between ladder bases of nt and ns dimensions, no
    weights, for int rows R and d(c) = s sqrt(p) (_slot_gauges): the entry
    R[r, c] / den * s_t(r) / s_s(c) sqrt(p_t(r) / p_s(c)) h**(c - r + shift)
    in the labels (-c, p); a zero R has the shift 0 of zeros."""
    gt, gs = _slot_gauges(nt - 1), _slot_gauges(ns - 1)
    big = lcm(*(s for _, s in gs))
    return PolyMatrix._labelled(
        den * big, [{c: v * gt[r][1] * (big // gs[c][1]) for c, v in row.items()}
                    for r, row in enumerate(rows)],
        _natural(nt), _natural(ns), shift if any(rows) else 0)


@spin_memo
def sl2_irrep(j) -> tuple[PolyMatrix, PolyMatrix, PolyMatrix]:
    """Classical spin-j ladder matrices (Zp, Zm, Hm), h-free; memoized per spin.

    Zp|j m> = sqrt((j-m)(j+m+1)) |j m+1>, Zm lowers, Hm|j m> = 2m |j m>.
    In position c = j - m and the gauge d(c) = sqrt(c! (2j-c)!) they are
    the integer matrices Zp: c -> c-1 with c, Zm: c -> c+1 with 2j - c and
    Hm = diag(2j - 2c), each built straight into the ladder basis.
    """
    ws = weight_range(j)
    n = len(ws)
    return tuple(_ladder_map(1, rows, n, n, s)._relabeled(ws, ws) for rows, s in (
        ([{r + 1: r + 1} if r + 1 < n else {} for r in range(n)], -1),
        ([{r - 1: n - r} if r else {} for r in range(n)], 1),
        ([{c: n - 1 - 2 * c} if n - 1 != 2 * c else {} for c in range(n)], 0)))


def x_matrix(j) -> PolyMatrix:
    """X = (2/h) arctanh(h Zp / 2) = Zp sum_i (h Zp/2)^(2i) / (2i+1)."""
    zp = sl2_irrep(j)[0]
    return zp @ power_series(zp @ zp * HPoly.h(2, Fraction(1, 4)),
                             lambda i: Fraction(1, 2 * i + 1))


def y_matrix(j) -> PolyMatrix:
    """Y = s Zm s with s = sqrt(1 - (h Zp/2)^2), a terminating binomial series."""
    zp, zm, _ = sl2_irrep(j)
    s = power_series(zp @ zp * HPoly.h(2, Fraction(-1, 4)),
                     lambda k: falling_binomial(Fraction(1, 2), k))
    return s @ zm @ s


def exp_hx(j, sign: int = +1) -> PolyMatrix:
    """e^{+-hX} of the spin-j module."""
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +-1, got {sign}")
    return irrep(j).exp_hx if sign > 0 else irrep(j).exp_mhx


# The field of GenMatrices holding each generator (the unit: a kept identity).
_FIELDS = {Generator.X: "x", Generator.Y: "y", Generator.H: "h",
           Generator.UNIT: "_identity", Generator.EXP_HX: "ep",
           Generator.EXP_MHX: "em"}


class GenMatrices(Frozen, Record):
    """The generator matrices of one module, plus optional weight labels."""

    def __init__(self, x: PolyMatrix, y: PolyMatrix, h: PolyMatrix,
                 ep: PolyMatrix, em: PolyMatrix,  # e^{hX}, e^{-hX}
                 weights: tuple[HalfInt, ...] | None = None):
        vars(self).update(x=x, y=y, h=h, ep=ep, em=em, weights=weights)

    @property
    def dim(self) -> int:
        return self.x.rows

    @cached_property
    def _antipodes(self) -> dict[Generator, PolyMatrix]:
        """S(gen) of every generator (antipode_matrix), formed on first use
        and kept, as an AlphaTable keeps its products."""
        return {Generator.X: -self.x, Generator.Y: -(self.ep @ self.y @ self.em),
                Generator.H: -(self.ep @ self.h @ self.em),
                Generator.UNIT: self._identity,
                Generator.EXP_HX: self.em, Generator.EXP_MHX: self.ep}

    @cached_property
    def _identity(self) -> PolyMatrix:  # in the module's basis, that of X
        return _unit_like(self.x)._relabeled(self.weights, self.weights)

    def of(self, gen: Generator) -> PolyMatrix:
        if gen not in _FIELDS:
            raise ValueError(f"unknown generator {gen!r}")
        return getattr(self, _FIELDS[gen])


class Irrep(Frozen, Record):
    """The spin-j module with both generator systems materialized."""

    def __init__(self, j: HalfInt, weights: tuple[HalfInt, ...],
                 zp: PolyMatrix, zm: PolyMatrix, hm: PolyMatrix, x: PolyMatrix,
                 y: PolyMatrix, exp_hx: PolyMatrix, exp_mhx: PolyMatrix,
                 exp_half_hx: PolyMatrix, exp_mhalf_hx: PolyMatrix):  # e^{+-hX/2}
        vars(self).update(j=j, weights=weights, zp=zp, zm=zm, hm=hm, x=x, y=y,
                          exp_hx=exp_hx, exp_mhx=exp_mhx, exp_half_hx=exp_half_hx,
                          exp_mhalf_hx=exp_mhalf_hx)

    @property
    def dim(self) -> int:
        return dim_of(self.j)

    def gens(self) -> GenMatrices:
        return self._gens  # one object, so its antipodes are formed once

    @cached_property
    def _gens(self) -> GenMatrices:
        return GenMatrices(self.x, self.y, self.hm, self.exp_hx, self.exp_mhx,
                           self.weights)


@spin_memo
def irrep(j) -> Irrep:
    """The (2j+1)-dimensional irrep; memoized per spin."""
    x = x_matrix(j)
    # e^{hX}, e^{-hX}, e^{hX/2}, e^{-hX/2}, in the field order of Irrep
    exps = (exp_nilpotent(x, HPoly.h(1, Fraction(f, 2))) for f in (2, -2, 1, -1))
    return Irrep(j, weight_range(j), *sl2_irrep(j), x, y_matrix(j), *exps)


def generator_matrix(j, gen: Generator) -> PolyMatrix:
    return irrep(j).gens().of(gen)


# -- derived functions of the generators ------------------------------------

def sinh_hx(gens: GenMatrices) -> PolyMatrix:
    return (gens.ep - gens.em) * Fraction(1, 2)


def cosh_hx(gens: GenMatrices) -> PolyMatrix:
    return (gens.ep + gens.em) * Fraction(1, 2)


def casimir_from_gens(gens: GenMatrices) -> PolyMatrix:
    """Casimir (1/2h){Y sinh hX + sinh hX Y} + H^2/4 + (sinh hX)^2/4."""
    sh, quarter = sinh_hx(gens), Fraction(1, 4)
    mixed = lincomb(((2, gens.y, sh), (2, sh, gens.y))).divide_h(1)
    return lincomb(((quarter, mixed), (quarter, gens.h, gens.h), (quarter, sh, sh)))


@spin_memo
def casimir_matrix(j) -> PolyMatrix:
    """The Casimir of the spin-j module (equal to j(j+1) times the
    identity); memoized per spin."""
    return casimir_from_gens(irrep(j).gens())


def casimir_ladder_form(j) -> PolyMatrix:
    """The same Casimir written as Zp Zm + (H/2)(H/2 - 1)."""
    rep = irrep(j)
    half_h = rep.hm * Fraction(1, 2)
    ident = PolyMatrix.identity(rep.dim, rep.weights)
    return rep.zp @ rep.zm + half_h @ (half_h - ident)


# -- Hopf structure -----------------------------------------------------------

_COPRODUCT: dict[Generator, tuple[tuple[Generator, Generator], ...]] = {
    Generator.X: ((Generator.X, Generator.UNIT), (Generator.UNIT, Generator.X)),
    Generator.Y: ((Generator.Y, Generator.EXP_HX), (Generator.EXP_MHX, Generator.Y)),
    Generator.H: ((Generator.H, Generator.EXP_HX), (Generator.EXP_MHX, Generator.H)),
    Generator.UNIT: ((Generator.UNIT, Generator.UNIT),),
    Generator.EXP_HX: ((Generator.EXP_HX, Generator.EXP_HX),),
    Generator.EXP_MHX: ((Generator.EXP_MHX, Generator.EXP_MHX),),
}


def coproduct_terms(gen: Generator) -> tuple[tuple[Generator, Generator], ...]:
    """The coproduct of gen as a sum of (left, right) generator pairs."""
    return _COPRODUCT[gen]


def counit(gen: Generator) -> Fraction:
    if gen in (Generator.UNIT, Generator.EXP_HX, Generator.EXP_MHX):
        return Fraction(1)
    return Fraction(0)


def antipode_matrix(gen: Generator, gens: GenMatrices) -> PolyMatrix:
    """The antipode S(gen) evaluated in a module, formed once per module.

    S(X) = -X, S(Y) = -e^{hX} Y e^{-hX}, S(H) = -e^{hX} H e^{-hX},
    S(e^{+-hX}) = e^{-+hX}.
    """
    if not isinstance(gen, Generator):
        raise ValueError(f"unknown generator {gen!r}")
    return gens._antipodes[gen]


def coproduct_matrix(gen: Generator, g1: GenMatrices, g2: GenMatrices) -> PolyMatrix:
    return _msum(kron(g1.of(a), g2.of(b)) for a, b in coproduct_terms(gen))


def coproduct_gens(g1: GenMatrices, g2: GenMatrices) -> GenMatrices:
    """All generator matrices on the tensor-product module."""
    return GenMatrices(
        x=coproduct_matrix(Generator.X, g1, g2),
        y=coproduct_matrix(Generator.Y, g1, g2),
        h=coproduct_matrix(Generator.H, g1, g2),
        ep=coproduct_matrix(Generator.EXP_HX, g1, g2),
        em=coproduct_matrix(Generator.EXP_MHX, g1, g2),
    )


# -- verification -------------------------------------------------------------

def relation_residuals(gens: GenMatrices) -> list[tuple[str, PolyMatrix]]:
    """Residual matrices of the three defining relations, all exactly zero
    when gens is a genuine module."""
    sh_over_h = sinh_hx(gens).divide_h(1)
    x, y, h, ch = gens.x, gens.y, gens.h, cosh_hx(gens)
    return [
        ("[X,Y] = H", lincomb(((1, x, y), (-1, y, x), (-1, h)))),
        ("[H,X] = 2 sinh(hX)/h", lincomb(((1, h, x), (-1, x, h), (-2, sh_over_h)))),
        ("[H,Y] = -{Y, cosh(hX)}",
         lincomb(((1, h, y), (-1, y, h), (1, y, ch), (1, ch, y)))),
    ]


def verify_defining_relations(j) -> Report:
    """Check the three defining relations on the spin-j module, exactly."""
    j = as_half(j)
    report = Report(f"defining relations on spin-{j}")
    for name, residual in relation_residuals(irrep(j).gens()):
        report.add(zero_check(name, residual))
    return report


def verify_casimir(j) -> Report:
    """Check that both Casimir forms equal j(j+1) exactly on spin j."""
    j = as_half(j)
    report = Report(f"Casimir on spin-{j}")
    expected = PolyMatrix.identity(dim_of(j), weight_range(j)) * casimir_eigenvalue(j)
    report.add(zero_check("hyperbolic form = j(j+1)", casimir_matrix(j) - expected))
    report.add(zero_check("ladder form = j(j+1)", casimir_ladder_form(j) - expected))
    return report


def verify_hopf_axioms(j) -> Report:
    """Hopf axioms in the spin-j module: coproduct is an algebra map,
    counit and antipode axioms hold on every generator."""
    j = as_half(j)
    report = Report(f"Hopf axioms on spin-{j}")
    g = irrep(j).gens()
    gg = coproduct_gens(g, g)
    for name, residual in relation_residuals(gg):
        report.add(zero_check(f"coproduct algebra map: {name}", residual))
    ident = PolyMatrix.identity(g.dim, g.weights)
    for gen in Generator:
        mat = g.of(gen)
        left = _msum(g.of(b) * counit(a) for a, b in coproduct_terms(gen))
        right = _msum(g.of(a) * counit(b) for a, b in coproduct_terms(gen))
        report.add(zero_check(f"counit axiom (left) on {gen.value}", left - mat))
        report.add(zero_check(f"counit axiom (right) on {gen.value}", right - mat))
        s_left = _msum(antipode_matrix(a, g) @ g.of(b) for a, b in coproduct_terms(gen))
        s_right = _msum(g.of(a) @ antipode_matrix(b, g) for a, b in coproduct_terms(gen))
        target = ident * counit(gen)
        report.add(zero_check(f"antipode axiom (left) on {gen.value}", s_left - target))
        report.add(zero_check(f"antipode axiom (right) on {gen.value}", s_right - target))
    return report
