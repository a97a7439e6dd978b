"""Polynomial rings with exact coefficients.

A monomial is a dense exponent tuple, one slot per ring variable.  A
Polynomial maps exponent tuples to nonzero field elements; {} is zero.
Polynomials are immutable by convention: every operation returns a fresh
object and nothing mutates .terms after construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import add, le, sub

from .errors import InputError, RingMismatchError
from .fields import QQ, Field
from .linalg import axpy

Mono = tuple  # exponent tuple


# monomial helpers; map over operator functions runs the per-slot loop in C

def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(map(add, a, b))


def mono_divides(a: Mono, b: Mono) -> bool:
    return all(map(le, a, b))


def mono_div(a: Mono, b: Mono) -> Mono:
    # caller guarantees b | a
    return tuple(map(sub, a, b))


def mono_lcm(a: Mono, b: Mono) -> Mono:
    return tuple(map(max, a, b))


def mono_deg(a: Mono) -> int:
    return sum(a)


def mono_is_squarefree(a: Mono) -> bool:
    return all(e <= 1 for e in a)


def mono_support(a: Mono):
    return tuple(i for i, e in enumerate(a) if e)


def monomials_of_degree(n: int, d: int):
    """All exponent tuples in n variables of total degree exactly d."""
    if n == 0:
        if d == 0:
            yield ()
        return
    for first in range(d, -1, -1):
        for rest in monomials_of_degree(n - 1, d - first):
            yield (first,) + rest


@dataclass(frozen=True)
class PolyRing:
    """k[x_1..x_n], standard graded, with named variables."""

    names: tuple
    field: Field = QQ

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise InputError("duplicate variable names: %r" % (self.names,))

    @property
    def nvars(self) -> int:
        return len(self.names)

    def zero_mono(self) -> Mono:
        return (0,) * self.nvars

    def unit_mono(self, i: int) -> Mono:
        return tuple(1 if j == i else 0 for j in range(self.nvars))

    def var(self, i: int) -> "Polynomial":
        return Polynomial(self, {self.unit_mono(i): self.field.one})

    def var_index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise InputError("unknown variable %r in ring %r" % (name, self.names))

    def const(self, c) -> "Polynomial":
        c = self.field.of(c)
        return Polynomial(self, {self.zero_mono(): c} if c else {})

    def monomial(self, m: Mono, c=1) -> "Polynomial":
        c = self.field.of(c)
        if len(m) != self.nvars:
            raise RingMismatchError("exponent tuple has wrong length")
        return Polynomial(self, {tuple(m): c} if c else {})

    def from_terms(self, terms: dict) -> "Polynomial":
        clean = {}
        for m, c in terms.items():
            c = self.field.of(c)
            if c:
                clean[tuple(m)] = c
        return Polynomial(self, clean)

    @property
    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    @property
    def one(self) -> "Polynomial":
        return self.const(1)

    def mono_str(self, m: Mono) -> str:
        parts = []
        for name, e in zip(self.names, m):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append("%s^%d" % (name, e))
        return "*".join(parts) if parts else "1"


class Polynomial:
    """Sparse polynomial: dict from exponent tuple to nonzero coefficient."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise RingMismatchError("polynomials from different rings")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        return Polynomial(self.ring, axpy(dict(self.terms), 1, other.terms, self.ring.field))

    def __neg__(self) -> "Polynomial":
        F = self.ring.field
        return Polynomial(self.ring, {m: F.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check(other)
        F = self.ring.field
        out = {}
        for m1, c1 in self.terms.items():
            axpy(out, c1, {mono_mul(m1, m2): c2 for m2, c2 in other.terms.items()}, F)
        return Polynomial(self.ring, out)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "Polynomial":
        c = self.ring.field.of(c)
        if not c:
            return self.ring.zero
        F = self.ring.field
        return Polynomial(self.ring, {m: F.mul(v, c) for m, v in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise InputError("negative power of a polynomial")
        out = self.ring.one
        for _ in range(k):
            out = out * self
        return out

    def total_degree(self) -> int:
        if not self.terms:
            raise InputError("degree of the zero polynomial")
        return max(mono_deg(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        return len({mono_deg(m) for m in self.terms}) == 1

    def sorted_terms(self, key=None):
        """Terms sorted descending; default key is plain lex on exponents."""
        if key is None:
            return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)

    def __repr__(self):
        from .parsing import poly_str

        return "<%s>" % poly_str(self)
