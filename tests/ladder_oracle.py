"""The inverse nonlinear map, kept as the reference for the coupled ladder.

``sl2_from_gens`` rebuilds (Zp, Zm) from any module's generator matrices
through the generic inverse map; applied to the coproduct matrices it gives
the coupled ladder operators that ``coupling.coupled_ladder`` builds from
the data of each module.
"""

from fractions import Fraction
from math import factorial

from jordanian.hpoly import HPoly
from jordanian.irreps import GenMatrices
from jordanian.polymatrix import PolyMatrix, power_series, unipotent_inverse


def cosh_half_hx(gens: GenMatrices) -> PolyMatrix:
    """cosh(hX/2) = sum_k (hX/2)^(2k) / (2k)!, a terminating series."""
    return power_series(gens.x @ gens.x * HPoly.h(2, Fraction(1, 4)),
                        lambda k: Fraction(1, factorial(2 * k)))


def sl2_from_gens(gens: GenMatrices) -> tuple[PolyMatrix, PolyMatrix]:
    """Rebuild (Zp, Zm) from the deformed generator matrices.

    Zp = (2/h) tanh(hX/2) = (2/h)(e^{hX} - 1)(e^{hX} + 1)^{-1} and
    Zm = cosh(hX/2) Y cosh(hX/2); both series terminate since X is
    nilpotent.  On a product module this yields the coupled ladder
    operators directly from coproduct matrices.
    """
    ident = PolyMatrix.identity(gens.dim, gens.weights)
    a = gens.ep - ident  # nilpotent, divisible by h
    zp = (a @ unipotent_inverse(ident + a * Fraction(1, 2))).divide_h(1)
    ch = cosh_half_hx(gens)
    return zp, ch @ gens.y @ ch
