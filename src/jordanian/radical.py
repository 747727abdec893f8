"""Exact scalars built from rationals and square roots of naturals.

The base scalar ring used throughout the package is the set of finite sums

    q1*sqrt(n1) + q2*sqrt(n2) + ...

with rational coefficients and squarefree natural radicands (radicand 1 is
the plain rational part).  Addition and multiplication are closed, the
canonical form is unique, and every quantity the package produces
(representation matrix entries, coupling coefficients, normalization
factors) lives in this ring, so identities are decided exactly by comparing
canonical forms.  Division is supported only by single-term scalars
q*sqrt(n), which is all the library ever needs.

>>> print(RadScalar.of(1, 8))
(2)*sqrt(2)
>>> print(RadScalar.sqrt(2) * RadScalar.sqrt(6))
(2)*sqrt(3)
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, isqrt

from .record import Frozen


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Split a natural n as s * f**2 with s squarefree; return (s, f).

    Trial division up to the cube root, then a perfect-square test on the
    cofactor (which has at most two prime factors by then).
    """
    if n < 1:
        raise ValueError(f"radicand must be a natural number, got {n}")
    s, f = 1, 1
    d = 2
    while d * d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            f *= d ** (e // 2)
            if e % 2:
                s *= d
        d += 1 if d == 2 else 2
    r = isqrt(n)
    if r * r == n:
        f *= r
    else:
        s *= n
    return s, f


def _trial_factor(n: int, acc: dict[int, int], sign: int) -> None:
    d = 2
    while d * d <= n:
        while n % d == 0:
            acc[d] = acc.get(d, 0) + sign
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        acc[n] = acc.get(n, 0) + sign


def _legendre_exponent(n: int, p: int) -> int:
    """Exponent of the prime p in n!."""
    e, q = 0, p
    while q <= n:
        e += n // q
        q *= p
    return e


def _primes_up_to(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i, flag in enumerate(sieve) if flag]


def sqrt_factorial_ratio(fact_num=(), fact_den=(), int_num=(), int_den=()) -> "RadScalar":
    """Exact square root of (prod int_num / prod int_den) * (prod a! / prod b!).

    The value under the root must be a nonnegative rational: the factorial
    arguments and int_num entries must be nonnegative integers (a zero in
    int_num makes the value zero), the int_den entries positive ones.
    Works through prime exponent bookkeeping, so no large-integer
    factorization ever happens.
    """
    for a in (*fact_num, *fact_den, *int_num):
        if a < 0:
            raise ValueError(f"argument must be nonnegative, got {a}")
    for n in int_den:
        if n <= 0:
            raise ValueError(f"integer denominator must be positive, got {n}")
    exps: dict[int, int] = {}
    top = max(list(fact_num) + list(fact_den), default=0)
    for p in _primes_up_to(top):
        e = sum(_legendre_exponent(a, p) for a in fact_num)
        e -= sum(_legendre_exponent(b, p) for b in fact_den)
        if e:
            exps[p] = e
    for n in int_num:
        if n == 0:
            return RadScalar.zero()
        _trial_factor(n, exps, +1)
    for n in int_den:
        _trial_factor(n, exps, -1)
    coeff, radicand = Fraction(1), 1
    for p, e in exps.items():
        q, r = divmod(e, 2)  # e = 2q + r with r in {0, 1}
        coeff *= Fraction(p) ** q
        if r:
            radicand *= p
    return RadScalar._make({radicand: coeff})


def falling_binomial(n, m: int) -> Fraction:
    """Binomial coefficient n*(n-1)*...*(n-m+1) / m!, zero for m < 0.

    Defined for any rational n (negative included); this is the extension
    used throughout the coupling machinery.

    >>> falling_binomial(-1, 2)
    Fraction(1, 1)
    >>> falling_binomial(5, -1)
    Fraction(0, 1)
    """
    if m < 0:
        return Fraction(0)
    n = Fraction(n)
    num = Fraction(1)
    for i in range(m):
        num *= n - i
    return num / factorial(m)


def format_terms(triples) -> str:
    """Canonical string for a list of (coefficient, radicand, h-power) terms.

    Grammar per term: (num[/den])[*sqrt(n)][*h[^k]]; terms joined by
    " + " / " - ".  The triples must already be sorted canonically.
    """
    if not triples:
        return "0"
    parts: list[str] = []
    for q, n, k in triples:
        body = f"({abs(q.numerator)})" if q.denominator == 1 else f"({abs(q.numerator)}/{q.denominator})"
        if n != 1:
            body += f"*sqrt({n})"
        if k == 1:
            body += "*h"
        elif k > 1:
            body += f"*h^{k}"
        if not parts:
            parts.append(("-" if q < 0 else "") + body)
        else:
            parts.append(("- " if q < 0 else "+ ") + body)
    return " ".join(parts)


class _ReadOnlyTerms(dict):
    """A dict that refuses every change: the terms of a RadScalar."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("RadScalar terms are read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only


class RadScalar(Frozen):
    """A finite sum of terms q*sqrt(n), q rational, n squarefree natural.

    The terms mapping (radicand -> coefficient) is canonical: no zero
    coefficients, all radicands squarefree.  Instances are immutable, the
    slot frozen and the mapping read-only: memoized matrices share their
    scalars with every caller.

    >>> x = RadScalar.of(Fraction(1, 2), 12)
    >>> print(x)
    (1)*sqrt(3)
    >>> print(x * x)
    (3)
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # Normalizes arbitrary radicands; internal code uses _make with
        # already-canonical data instead.
        canon: dict[int, Fraction] = {}
        for n, q in (terms or {}).items():
            q = Fraction(q)
            if not q:
                continue
            s, f = squarefree_decompose(n)
            coeff = q * f
            acc = canon.get(s, Fraction(0)) + coeff
            if acc:
                canon[s] = acc
            else:
                canon.pop(s, None)
        object.__setattr__(self, "terms", _ReadOnlyTerms(canon))

    @staticmethod
    def _make(terms: dict[int, Fraction]) -> "RadScalar":
        return RadScalar._canonical({n: q for n, q in terms.items() if q})

    @staticmethod
    def _canonical(terms: dict[int, Fraction]) -> "RadScalar":
        """The scalar of a dict that is already canonical (no zero
        coefficient, squarefree radicands)."""
        self = RadScalar.__new__(RadScalar)
        object.__setattr__(self, "terms", _ReadOnlyTerms(terms))
        return self

    def __reduce__(self):
        return RadScalar._canonical, (dict(self.terms),)

    @classmethod
    def zero(cls) -> "RadScalar":
        return cls._make({})

    @classmethod
    def one(cls) -> "RadScalar":
        return cls._make({1: Fraction(1)})

    @classmethod
    def from_rational(cls, q) -> "RadScalar":
        return cls._make({1: Fraction(q)}) if q else cls._make({})

    @classmethod
    def sqrt(cls, n: int) -> "RadScalar":
        """Exact square root of a natural number (0 allowed)."""
        if n == 0:
            return cls.zero()
        s, f = squarefree_decompose(n)
        return cls._make({s: Fraction(f)})

    @classmethod
    def of(cls, q, n: int = 1) -> "RadScalar":
        """Canonical form of q*sqrt(n)."""
        q = Fraction(q)
        if not q:
            return cls.zero()
        s, f = squarefree_decompose(n)
        return cls._make({s: q * f})

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        other = as_rad(other)
        if other is NotImplemented:
            return NotImplemented
        out = self.terms.copy()
        for n, q in other.terms.items():
            acc = out.get(n, Fraction(0)) + q
            if acc:
                out[n] = acc
            else:
                out.pop(n, None)
        return RadScalar._canonical(out)

    __radd__ = __add__

    def __neg__(self):
        return RadScalar._canonical({n: -q for n, q in self.terms.items()})

    def __sub__(self, other):
        other = as_rad(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return as_rad(other) - self

    def __mul__(self, other):
        other = as_rad(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[int, Fraction] = {}
        for n1, q1 in self.terms.items():
            for n2, q2 in other.terms.items():
                # sqrt(n1)*sqrt(n2) = g*sqrt((n1/g)*(n2/g)) with g = gcd:
                # the cofactors are coprime and squarefree, so their product
                # is already squarefree.
                g = gcd(n1, n2)
                key = (n1 // g) * (n2 // g)
                acc = out.get(key, Fraction(0)) + q1 * q2 * g
                if acc:
                    out[key] = acc
                else:
                    out.pop(key, None)
        return RadScalar._canonical(out)

    __rmul__ = __mul__

    def inverse(self) -> "RadScalar":
        """Inverse of a single-term scalar: (q*sqrt(n))**-1 = sqrt(n)/(q*n)."""
        if not self.terms:
            raise ZeroDivisionError("scalar division by zero")
        q, n = self.single_term()
        return RadScalar._make({n: Fraction(1, 1) / (q * n)})

    def __truediv__(self, other):
        if isinstance(other, RadScalar):
            return self * other.inverse()
        return self * (Fraction(1) / Fraction(other))

    # -- structure ------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        other = as_rad(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    @property
    def is_rational(self) -> bool:
        return all(n == 1 for n in self.terms)

    def as_fraction(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.terms[1]

    def single_term(self) -> tuple[Fraction, int]:
        """The (coefficient, radicand) pair of a one-term scalar."""
        if len(self.terms) != 1:
            raise ValueError(f"{self} is not a single radical term")
        ((n, q),) = self.terms.items()
        return q, n

    def sorted_terms(self) -> list[tuple[Fraction, int]]:
        return [(self.terms[n], n) for n in sorted(self.terms)]

    def __str__(self):
        return format_terms([(q, n, 0) for q, n in self.sorted_terms()])

    def __repr__(self):
        return f"RadScalar({self})"


def as_rad(value) -> "RadScalar":
    """Coerce int/Fraction/RadScalar to RadScalar (NotImplemented otherwise)."""
    if isinstance(value, RadScalar):
        return value
    if isinstance(value, (int, Fraction)):
        return RadScalar.from_rational(value)
    return NotImplemented

