"""Term orders: lex, graded reverse lex, weight orders, and the diagonal
order used for minors of a generic matrix.

An order exposes key(mono) -> tuple, a function fixed when the order is
built; bigger key means bigger monomial, and key comparison is
multiplicative because every kind here is realized by a (sequence of)
linear functionals on exponent vectors.  A new kind must keep key linear:
the walk by total degree in `resolution` reads the functionals off the
key's values at the unit vectors to pack monomials in term order.

The diagonal order on an n x m matrix of variables is lex with row-major
priority x11 > x12 > ... > x1m > x21 > ...; under it the leading term of
every maximal minor is its main-diagonal product.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter, mul
from typing import Optional

from .errors import InputError
from .rings import Mono, PolyRing


@dataclass(frozen=True)
class TermOrder:
    kind: str  # "lex" | "grevlex" | "weight" | "diagonal"
    nvars: int
    priority: tuple  # variable indices, most significant first
    wvec: Optional[tuple] = None  # weight kind only
    shape: Optional[tuple] = None  # diagonal kind only, (rows, cols)

    def __post_init__(self):
        # key(m) runs for every term of every leading-term search, so the
        # function is chosen once here rather than dispatched per call
        object.__setattr__(self, "key", _key_function(self))

    def leading_mono(self, f) -> Mono:
        if f.is_zero():
            raise InputError("leading term of the zero polynomial")
        return max(f.terms, key=self.key)

    def descriptor(self, ring: PolyRing) -> str:
        chain = ">".join(ring.names[i] for i in self.priority)
        if self.kind in ("lex", "grevlex"):
            return "%s %s" % (self.kind, chain)
        if self.kind == "diagonal":
            return "diagonal %dx%d" % self.shape
        if self.kind == "weight":
            return "weight %s lex %s" % (",".join(str(w) for w in self.wvec), chain)
        raise InputError("unknown order kind %r" % self.kind)


def _key_function(order: TermOrder):
    pr = order.priority
    # a monomial is an exponent tuple and tuple(m) is m itself, so with the
    # identity priority the lex key costs no Python-level call
    pick = tuple if pr == tuple(range(order.nvars)) else itemgetter(*pr)
    if order.kind == "lex" or order.kind == "diagonal":
        return pick
    if order.kind == "grevlex":
        # degree first; ties: smaller exponent at the least significant
        # position wins, hence negation read in reverse priority
        rev = pr[::-1]
        return lambda m: (sum(m), *[-m[i] for i in rev])
    if order.kind == "weight":
        w = order.wvec
        return lambda m: (sum(map(mul, w, m)), *pick(m))
    raise InputError("unknown order kind %r" % order.kind)


def lex(ring: PolyRing, priority=None) -> TermOrder:
    pr = tuple(priority) if priority is not None else tuple(range(ring.nvars))
    _check_priority(ring, pr)
    return TermOrder("lex", ring.nvars, pr)


def grevlex(ring: PolyRing, priority=None) -> TermOrder:
    pr = tuple(priority) if priority is not None else tuple(range(ring.nvars))
    _check_priority(ring, pr)
    return TermOrder("grevlex", ring.nvars, pr)


def weight_order(ring: PolyRing, wvec, tiebreak_priority=None) -> TermOrder:
    w = tuple(wvec)
    if len(w) != ring.nvars:
        raise InputError("weight vector length mismatch")
    if any(x <= 0 for x in w):
        raise InputError("weight entries must be positive")
    pr = tuple(tiebreak_priority) if tiebreak_priority is not None else tuple(range(ring.nvars))
    _check_priority(ring, pr)
    return TermOrder("weight", ring.nvars, pr, wvec=w)


def diagonal_order(ring: PolyRing, rows: int, cols: int) -> TermOrder:
    """Row-major lex on a ring whose variables are matrix entries.

    The ring may omit cells (ladder patterns); priority is the declared
    variable sequence, which the determinantal builders lay out row-major.
    """
    if rows < 1 or cols < 1:
        raise InputError("bad matrix shape")
    return TermOrder("diagonal", ring.nvars, tuple(range(ring.nvars)), shape=(rows, cols))


def _check_priority(ring: PolyRing, pr: tuple):
    if sorted(pr) != list(range(ring.nvars)):
        raise InputError("priority must be a permutation of all variable indices")
