"""Half-integer weight labels, stored as doubled integers."""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering, wraps

from .record import Frozen


@total_ordering
class HalfInt(Frozen):
    """A half-integer such as 0, 1/2, -3/2, 2, stored as twice its value.

    Angular-momentum labels (j) and weights (m, k) are half-integers, and
    all index arithmetic on them reduces to plain integer arithmetic on the
    doubled value.  Instances are immutable: memoized weight tuples and
    memo keys share them with every caller.

    >>> half(3, 2) + 1
    HalfInt(5/2)
    >>> sorted([half(1), half(-1, 2), half(1, 2)])
    [HalfInt(-1/2), HalfInt(1/2), HalfInt(1)]
    """

    __slots__ = ("twice",)

    def __init__(self, value):
        if isinstance(value, HalfInt):
            twice = value.twice
        elif isinstance(value, int):
            twice = 2 * value
        elif isinstance(value, Fraction):
            if value.denominator not in (1, 2):
                raise ValueError(f"not a half-integer: {value}")
            twice = value.numerator * (2 // value.denominator)
        else:
            raise TypeError(f"cannot build a half-integer from {value!r}")
        _set_twice(self, twice)

    @classmethod
    def from_twice(cls, twice: int) -> "HalfInt":
        self = object.__new__(cls)
        _set_twice(self, int(twice))
        return self

    def __reduce__(self):
        return HalfInt.from_twice, (self.twice,)

    @classmethod
    def parse(cls, text: str) -> "HalfInt":
        """Parse '3/2', '1.5', '-2' and friends."""
        return cls(Fraction(text.strip()))

    def as_fraction(self) -> Fraction:
        return Fraction(self.twice, 2)

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def as_int(self) -> int:
        if self.twice % 2:
            raise ValueError(f"{self} is not an integer")
        return self.twice // 2

    def __add__(self, other):
        return HalfInt.from_twice(self.twice + HalfInt(other).twice)

    __radd__ = __add__

    def __sub__(self, other):
        return HalfInt.from_twice(self.twice - HalfInt(other).twice)

    def __rsub__(self, other):
        return HalfInt.from_twice(HalfInt(other).twice - self.twice)

    def __neg__(self):
        return HalfInt.from_twice(-self.twice)

    def __abs__(self):
        return HalfInt.from_twice(abs(self.twice))

    def __eq__(self, other):
        if type(other) is HalfInt:
            return self.twice == other.twice
        try:
            return self.twice == HalfInt(other).twice
        except (TypeError, ValueError):
            return NotImplemented

    def __lt__(self, other):
        return self.twice < HalfInt(other).twice

    def __hash__(self):
        # Equal values hash equally across HalfInt/int/Fraction.
        twice = self.twice
        if twice % 2:
            return hash(Fraction(twice, 2))
        return hash(twice // 2)

    def __bool__(self):
        return self.twice != 0

    def __str__(self):
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self):
        return f"HalfInt({self})"


# The slot's own setter: builds an instance past the __setattr__ that
# refuses every later change.
_set_twice = HalfInt.twice.__set__


def half(num: int, den: int = 1) -> HalfInt:
    """Shorthand constructor: half(3, 2) == 3/2, half(2) == 2."""
    return HalfInt(Fraction(num, den))


def as_half(value) -> HalfInt:
    """Coerce an int, Fraction, str or HalfInt to a HalfInt."""
    if isinstance(value, HalfInt):
        return value
    if isinstance(value, str):
        return HalfInt.parse(value)
    return HalfInt(value)


def dim_of(j: HalfInt) -> int:
    """Dimension 2j+1 of the spin-j weight ladder."""
    if j.twice < 0:
        raise ValueError(f"spin label must be nonnegative, got {j}")
    return j.twice + 1


def spin_memo(build):
    """Memoize a construction per spin: each spelling of a spin (int,
    Fraction, text or HalfInt) is keyed by its doubled value and reaches
    ``build`` as a HalfInt.  The results are kept in the dict ``built`` on
    the memo, keyed by the tuple of doubled spins; a build that raises
    keeps nothing.

    >>> weight_range("1/2") is weight_range(half(1, 2)) is weight_range(" 0.5")
    True
    """
    @wraps(build)
    def memo(*spins):
        key = tuple([j.twice if type(j) is HalfInt else as_half(j).twice
                     for j in spins])
        if key not in memo.built:
            memo.built[key] = build(*map(HalfInt.from_twice, key))
        return memo.built[key]

    memo.built = {}
    return memo


@spin_memo
def weight_range(j: HalfInt) -> tuple[HalfInt, ...]:
    """Weights j, j-1, ..., -j in the fixed (descending) basis order; one
    tuple per spin, built on first request and then shared."""
    return tuple(HalfInt.from_twice(j.twice - 2 * i) for i in range(dim_of(j)))


@spin_memo
def weight_texts(j: HalfInt) -> tuple[str, ...]:
    """The texts of weight_range(j), kept beside it: one tuple per spin."""
    return tuple(map(str, weight_range(j)))


def weight_index(j: HalfInt, m: HalfInt) -> int:
    """Position of weight m in weight_range(j)."""
    t = j.twice - m.twice
    if t % 2 or t < 0 or m.twice < -j.twice:
        raise ValueError(f"weight {m} does not belong to the spin-{j} ladder")
    return t // 2


def casimir_eigenvalue(j: HalfInt) -> Fraction:
    """j(j+1) as an exact rational."""
    return Fraction(j.twice * (j.twice + 2), 4)
