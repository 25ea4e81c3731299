"""Closed intervals with exact rational endpoints.

Used for rigorous enclosures: every arithmetic operation returns an
interval that contains the exact image, with no rounding anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NumerationError


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        lo, hi = Fraction(self.lo), Fraction(self.hi)
        if lo > hi:
            raise NumerationError(f"empty interval [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def point(cls, x) -> "Interval":
        x = Fraction(x)
        return cls(x, x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x) -> bool:
        return self.lo <= Fraction(x) <= self.hi

    def __add__(self, other):
        o = _coerce(other)
        return Interval(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        o = _coerce(other)
        prods = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return Interval(min(prods), max(prods))

    __rmul__ = __mul__

    def recip(self) -> "Interval":
        if self.lo <= 0 <= self.hi:
            raise NumerationError("interval straddles zero; cannot invert")
        return Interval(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other):
        return self * _coerce(other).recip()

    def __rtruediv__(self, other):
        return _coerce(other) * self.recip()

    def __pow__(self, k: int):
        if k < 0:
            return (self ** (-k)).recip()
        if k == 0:
            return Interval.point(1)
        if self.lo >= 0 or k % 2 == 1:
            return Interval(self.lo**k, self.hi**k)
        if self.hi <= 0:
            return Interval(self.hi**k, self.lo**k)
        return Interval(Fraction(0), max(-self.lo, self.hi) ** k)

    def __repr__(self):
        return f"Interval({float(self.lo):.12g}, {float(self.hi):.12g})"


def _coerce(x) -> Interval:
    return x if isinstance(x, Interval) else Interval.point(x)
