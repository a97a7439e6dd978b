"""Exact coefficient fields: the rationals and prime fields F_p.

Coefficients are plain values, not wrapped objects.  Over QQ a value is an
`int` when it is integral and a `Fraction` otherwise, so the common integral
case runs on machine-level int arithmetic; never a float.  Over F_p values
are ints in [0, p).  The Field instance is the arithmetic of the polynomial
layers; the hot loops of `linalg` (`axpy` and the Eliminator's one reduction)
branch on `char` once and do their arithmetic inline.
"""
from __future__ import annotations

from fractions import Fraction


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _qq_normal(x):
    """An integral Fraction as an int; anything else unchanged."""
    if x.__class__ is Fraction and x.denominator == 1:
        return x.numerator
    return x


class Field:
    """QQ when char == 0, otherwise F_p for a prime p <= 2**31."""

    __slots__ = ("char",)

    zero = 0
    one = 1

    def __init__(self, char: int = 0):
        if char != 0:
            if char > 2 ** 31:
                raise ValueError("prime modulus too large: %d" % char)
            if not _is_prime(char):
                raise ValueError("modulus must be prime, got %d" % char)
        self.char = char

    def of(self, a):
        """Canonicalize an int / Fraction / string into this field."""
        if self.char == 0:
            return a if a.__class__ is int else _qq_normal(Fraction(a))
        if isinstance(a, str):
            a = Fraction(a)
        if isinstance(a, Fraction):
            if a.denominator % self.char == 0:
                raise ZeroDivisionError("denominator not invertible mod %d" % self.char)
            return a.numerator * pow(a.denominator, -1, self.char) % self.char
        return int(a) % self.char

    def add(self, a, b):
        return _qq_normal(a + b) if self.char == 0 else (a + b) % self.char

    def sub(self, a, b):
        return _qq_normal(a - b) if self.char == 0 else (a - b) % self.char

    def mul(self, a, b):
        return _qq_normal(a * b) if self.char == 0 else (a * b) % self.char

    def neg(self, a):
        return -a if self.char == 0 else (-a) % self.char

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        if self.char:
            return pow(a, -1, self.char)
        # ints carry numerator/denominator too; Fraction normalizes the sign
        return _qq_normal(Fraction(a.denominator, a.numerator))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def __eq__(self, other):
        return isinstance(other, Field) and self.char == other.char

    def __hash__(self):
        return hash(("Field", self.char))

    def __repr__(self):
        return "QQ" if self.char == 0 else "F%d" % self.char


QQ = Field(0)


def GF(p: int) -> Field:
    return Field(p)
