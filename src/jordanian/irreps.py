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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .halfint import (HalfInt, as_half, casimir_eigenvalue, dim_of,
                      weight_range)
from .hpoly import HPoly
from .polymatrix import (PolyMatrix, commutator, exp_nilpotent, kron,
                         power_series)
from .radical import RadScalar, falling_binomial
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


def sl2_irrep(j) -> tuple[PolyMatrix, PolyMatrix, PolyMatrix]:
    """Classical spin-j ladder matrices (Zp, Zm, Hm), h-free.

    Zp|j m> = sqrt((j-m)(j+m+1)) |j m+1>, Zm lowers, Hm|j m> = 2m |j m>.
    The coefficients are real, so Zm = Zp^T.
    """
    ws = weight_range(as_half(j))
    n = len(ws)
    # column c = j - m: sqrt((j-m)(j+m+1)) = sqrt(c (n - c)), n = 2j + 1
    zp = PolyMatrix([[RadScalar.sqrt(c * (n - c)) if c == r + 1 else 0
                      for c in range(n)] for r in range(n)], ws, ws)
    hm = PolyMatrix.diagonal([Fraction(m.twice) for m in ws], ws)
    return zp, zp.transpose(), hm


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


@dataclass(frozen=True)
class GenMatrices:
    """The generator matrices of one module, plus optional weight labels."""

    x: PolyMatrix
    y: PolyMatrix
    h: PolyMatrix
    ep: PolyMatrix  # e^{hX}
    em: PolyMatrix  # e^{-hX}
    weights: tuple[HalfInt, ...] | None = None

    @property
    def dim(self) -> int:
        return self.x.rows

    def of(self, gen: Generator) -> PolyMatrix:
        if gen is Generator.X:
            return self.x
        if gen is Generator.Y:
            return self.y
        if gen is Generator.H:
            return self.h
        if gen is Generator.UNIT:
            return PolyMatrix.identity(self.dim, self.weights)
        if gen is Generator.EXP_HX:
            return self.ep
        if gen is Generator.EXP_MHX:
            return self.em
        raise ValueError(f"unknown generator {gen!r}")


@dataclass(frozen=True)
class Irrep:
    """The spin-j module with both generator systems materialized."""

    j: HalfInt
    weights: tuple[HalfInt, ...]
    zp: PolyMatrix
    zm: PolyMatrix
    hm: PolyMatrix
    x: PolyMatrix
    y: PolyMatrix
    exp_hx: PolyMatrix
    exp_mhx: PolyMatrix
    exp_half_hx: PolyMatrix  # e^{hX/2}
    exp_mhalf_hx: PolyMatrix  # e^{-hX/2}

    @property
    def dim(self) -> int:
        return dim_of(self.j)

    def gens(self) -> GenMatrices:
        return GenMatrices(self.x, self.y, self.hm, self.exp_hx, self.exp_mhx,
                           self.weights)


def irrep(j) -> Irrep:
    """The (2j+1)-dimensional irrep; memoized."""
    return _irrep_cached(as_half(j))


@lru_cache(maxsize=None)
def _irrep_cached(j: HalfInt) -> Irrep:
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
    sh = sinh_hx(gens)
    mixed = (gens.y @ sh + sh @ gens.y).divide_h(1) * Fraction(1, 2)
    return mixed + (gens.h @ gens.h) * Fraction(1, 4) + (sh @ sh) * Fraction(1, 4)


def casimir_matrix(j) -> PolyMatrix:
    """The Casimir of the spin-j module (equal to j(j+1) times the identity)."""
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
    """The antipode S(gen) evaluated in a module.

    S(X) = -X, S(Y) = -e^{hX} Y e^{-hX}, S(H) = -e^{hX} H e^{-hX},
    S(e^{+-hX}) = e^{-+hX}.
    """
    if gen is Generator.X:
        return -gens.x
    if gen is Generator.Y:
        return -(gens.ep @ gens.y @ gens.em)
    if gen is Generator.H:
        return -(gens.ep @ gens.h @ gens.em)
    if gen is Generator.UNIT:
        return PolyMatrix.identity(gens.dim, gens.weights)
    if gen is Generator.EXP_HX:
        return gens.em
    if gen is Generator.EXP_MHX:
        return gens.ep
    raise ValueError(f"unknown generator {gen!r}")


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


def _msum(mats) -> PolyMatrix:
    acc = None
    for m in mats:
        acc = m if acc is None else acc + m
    if acc is None:
        raise ValueError("empty sum")
    return acc


# -- verification -------------------------------------------------------------

def relation_residuals(gens: GenMatrices) -> list[tuple[str, PolyMatrix]]:
    """Residual matrices of the three defining relations, all exactly zero
    when gens is a genuine module."""
    sh_over_h = sinh_hx(gens).divide_h(1)
    ch = cosh_hx(gens)
    return [
        ("[X,Y] = H", commutator(gens.x, gens.y) - gens.h),
        ("[H,X] = 2 sinh(hX)/h", commutator(gens.h, gens.x) - sh_over_h * 2),
        ("[H,Y] = -{Y, cosh(hX)}",
         commutator(gens.h, gens.y) + gens.y @ ch + ch @ gens.y),
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
