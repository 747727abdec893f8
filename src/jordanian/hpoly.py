"""Polynomials in the deformation parameter h over the radical scalars.

Every matrix entry in the package is an HPoly.  The coefficient sequence is
kept trimmed (no trailing zeros), so equality of canonical forms decides
polynomial identity in h exactly.

>>> p = HPoly.h(1, Fraction(-1, 2))
>>> print(p)
-(1/2)*h
>>> print(p * p)
(1/4)*h^2
"""

from __future__ import annotations

from fractions import Fraction

from .radical import RadScalar, as_rad, format_terms
from .record import Frozen


class HPoly(Frozen):
    """A polynomial sum_k c_k h**k with RadScalar coefficients.

    Instances are immutable: memoized matrices share their entries with
    every caller, so the slots are frozen once set.  The text of the first
    str() is kept, and so is the JSON text cli._json_scalar last formed,
    with the indent it was formed at; ==, hash and pickling read neither.
    """

    __slots__ = ("coeffs", "_text", "_json")

    def __init__(self, coeffs=()):
        out = []
        for c in coeffs:
            r = as_rad(c)
            if r is NotImplemented:
                raise TypeError(f"bad coefficient {c!r}")
            out.append(r)
        while out and not out[-1]:
            out.pop()
        object.__setattr__(self, "coeffs", tuple(out))

    @staticmethod
    def _canonical(coeffs: tuple) -> "HPoly":
        """Wrap a tuple of RadScalars that is already trimmed."""
        self = HPoly.__new__(HPoly)
        object.__setattr__(self, "coeffs", coeffs)
        return self

    def __reduce__(self):
        return HPoly._canonical, (self.coeffs,)

    @classmethod
    def zero(cls) -> "HPoly":
        return cls(())

    @classmethod
    def one(cls) -> "HPoly":
        return cls((RadScalar.one(),))

    @classmethod
    def constant(cls, value) -> "HPoly":
        return cls((value,))

    @classmethod
    def h(cls, power: int = 1, coeff=1) -> "HPoly":
        """The monomial coeff * h**power."""
        if power < 0:
            raise ValueError(f"negative h power: {power}")
        return cls((RadScalar.zero(),) * power + (coeff,))

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        other = as_hpoly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return HPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return HPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = as_hpoly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return as_hpoly(other) - self

    def __mul__(self, other):
        other = as_hpoly(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return HPoly.zero()
        out = [RadScalar.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for k, b in enumerate(other.coeffs):
                if b:
                    out[i + k] = out[i + k] + a * b
        return HPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a single-term RadScalar (or rational) divisor."""
        if isinstance(other, RadScalar):
            inv = other.inverse()
        else:
            inv = RadScalar.from_rational(Fraction(1) / Fraction(other))
        return self * inv

    # -- structure ----------------------------------------------------------

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        other = as_hpoly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    @property
    def degree(self) -> int:
        """Degree in h; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> RadScalar:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else RadScalar.zero()

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def constant_value(self) -> RadScalar:
        if not self.is_constant:
            raise ValueError(f"{self} depends on h")
        return self.coeff(0)

    def divide_h(self, k: int = 1) -> "HPoly":
        """Exact division by h**k; raises if any low coefficient is nonzero."""
        if k < 0:
            raise ValueError(f"negative h power: {k}")
        low = self.coeffs[:k]
        if any(low):
            raise ValueError(f"{self} is not divisible by h^{k}")
        return HPoly(self.coeffs[k:])

    def eval_h(self, value) -> RadScalar:
        """Evaluate at a rational value of h (Horner)."""
        value = Fraction(value)
        acc = RadScalar.zero()
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def sorted_terms(self) -> list[tuple[Fraction, int, int]]:
        """Terms (q, radicand, h-power) sorted by (h-power, radicand)."""
        out = []
        for k, c in enumerate(self.coeffs):
            for q, n in c.sorted_terms():
                out.append((q, n, k))
        return out

    def __str__(self):
        if not hasattr(self, "_text"):
            object.__setattr__(self, "_text", format_terms(self.sorted_terms()))
        return self._text

    def __repr__(self):
        return f"HPoly({self})"


def as_hpoly(value) -> "HPoly":
    """Coerce int/Fraction/RadScalar/HPoly to HPoly (NotImplemented otherwise)."""
    if isinstance(value, HPoly):
        return value
    r = as_rad(value)
    if r is NotImplemented:
        return NotImplemented
    return HPoly((r,))
