"""Buchberger with Gebauer-Moeller pair pruning, reduced bases, normal
forms, initial ideals, and standard-monomial bases of quotient rings.

Reduced Groebner bases are unique for (ideal, order), so downstream
serialization and equality tests lean on that.
"""
from __future__ import annotations

from .errors import UNIT_IDEAL, InputError
from .koszul import KoszulComplex
from .linalg import axpy
from .monomial import MonomialIdeal
from .orders import TermOrder
from .rings import (
    Mono,
    PolyRing,
    Polynomial,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    monomials_of_degree,
)


def normal_form(f: Polynomial, basis, order: TermOrder) -> Polynomial:
    """Fully reduced remainder of f modulo basis (every term reduced)."""
    ring = f.ring
    F = ring.field
    lts = [(order.leading_mono(g), order.leading_coeff(g), g) for g in basis if not g.is_zero()]
    rem = {}
    p = dict(f.terms)
    while p:
        m = max(p, key=order.key)
        c = p[m]
        for ltm, ltc, g in lts:
            if mono_divides(ltm, m):
                q = mono_div(m, ltm)
                shifted = {mono_mul(t, q): v for t, v in g.terms.items()}
                axpy(p, F.neg(F.div(c, ltc)), shifted, F)
                break
        else:
            rem[m] = c
            del p[m]
    return Polynomial(ring, rem)


def s_polynomial(f: Polynomial, g: Polynomial, order: TermOrder) -> Polynomial:
    F = f.ring.field
    lf, lg = order.leading_mono(f), order.leading_mono(g)
    cf, cg = f.terms[lf], g.terms[lg]
    l = mono_lcm(lf, lg)
    return f.mono_shift(mono_div(l, lf)).scale(F.inv(cf)) - g.mono_shift(
        mono_div(l, lg)
    ).scale(F.inv(cg))


def _gm_update(pairs, lts, h, order):
    """Gebauer-Moeller: returns the surviving pair set after generator h
    joins.  pairs is a set of (i, j) index pairs, i < j < h."""
    lth = lts[h]
    cand = {}
    for i in range(h):
        l = mono_lcm(lts[i], lth)
        cand.setdefault(l, []).append(i)
    # keep only lcm-minimal groups
    lcms = list(cand.keys())
    minimal = [
        l
        for l in lcms
        if not any(l2 != l and mono_divides(l2, l) for l2 in lcms)
    ]
    new_pairs = set()
    for l in sorted(minimal, key=order.key):
        group = cand[l]
        # product criterion kills the whole lcm class
        if any(mono_mul(lts[i], lth) == l for i in group):
            continue
        new_pairs.add((min(group), h))
    survivors = set()
    for (i, j) in pairs:
        l = mono_lcm(lts[i], lts[j])
        if (
            mono_divides(lth, l)
            and mono_lcm(lts[i], lth) != l
            and mono_lcm(lts[j], lth) != l
        ):
            continue
        survivors.add((i, j))
    return survivors | new_pairs


def buchberger(gens, order: TermOrder):
    """Return the reduced Groebner basis (monic, sorted by leading term)."""
    work = [g for g in gens if not g.is_zero()]
    if not work:
        return ()
    ring = work[0].ring
    F = ring.field
    G = []
    lts = []
    pairs = set()
    for g in work:
        G.append(g)
        lts.append(order.leading_mono(g))
        pairs = _gm_update(pairs, lts, len(G) - 1, order)
    while pairs:
        i, j = min(pairs, key=lambda p: (order.key(mono_lcm(lts[p[0]], lts[p[1]])), p))
        pairs.discard((i, j))
        s = s_polynomial(G[i], G[j], order)
        r = normal_form(s, G, order)
        if not r.is_zero():
            G.append(r)
            lts.append(order.leading_mono(r))
            pairs = _gm_update(pairs, lts, len(G) - 1, order)
    return _interreduce(G, order)


def _interreduce(G, order):
    # drop members whose leading term another member's leading term divides
    lts = [order.leading_mono(g) for g in G]
    keep = []
    for i in range(len(G)):
        if any(
            j != i
            and mono_divides(lts[j], lts[i])
            and (lts[j] != lts[i] or j < i)
            for j in range(len(G))
        ):
            continue
        keep.append(i)
    basis = [G[i] for i in keep]
    F = basis[0].ring.field if basis else None
    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            others = basis[:i] + basis[i + 1 :]
            r = normal_form(basis[i], others, order)
            if r.terms != basis[i].terms:
                if r.is_zero():
                    basis.pop(i)
                else:
                    basis[i] = r
                changed = True
                break
    out = []
    for g in basis:
        c = order.leading_coeff(g)
        out.append(g.scale(F.inv(c)))
    out.sort(key=lambda g: order.key(order.leading_mono(g)))
    return tuple(out)


class GroebnerBasis:
    """A reduced Groebner basis with its ring and order; it owns in(I), R/I
    and R/in(I), each built on first request."""

    def __init__(self, ring: PolyRing, order: TermOrder, gens, reduce: bool = True):
        self.ring = ring
        self.order = order
        gens = list(gens)
        for g in gens:
            if g.ring != ring:
                raise InputError("generator from a different ring")
        self.gens = buchberger(gens, order) if reduce else tuple(gens)
        self.lts = tuple(order.leading_mono(g) for g in self.gens)
        self._initial_ideal = None
        self._quotient = None
        self._initial_quotient = None

    def nf(self, f: Polynomial) -> Polynomial:
        return normal_form(f, self.gens, self.order)

    def initial_ideal(self) -> MonomialIdeal:
        if self._initial_ideal is None:
            self._initial_ideal = MonomialIdeal.from_monos(self.ring, self.lts)
        return self._initial_ideal

    def quotient(self) -> "QuotientRing":
        if self._quotient is None:
            self._quotient = QuotientRing(self)
        return self._quotient

    def initial_quotient(self) -> "QuotientRing":
        """R/in(I).  The minimal monomial generators of in(I) are a reduced
        basis for any order, so no Buchberger pass is run; the quotient is
        that basis's own `quotient()`."""
        if self._initial_quotient is None:
            gb = GroebnerBasis(self.ring, self.order, self.initial_ideal().polys(), reduce=False)
            self._initial_quotient = gb.quotient()
        return self._initial_quotient

    def __eq__(self, other):
        return (
            isinstance(other, GroebnerBasis)
            and self.ring == other.ring
            and self.order == other.order
            and self.gens == other.gens
        )

    def __repr__(self):
        return "<GB %d gens over %s>" % (len(self.gens), ",".join(self.ring.names))


class QuotientRing:
    """R/I presented by a Groebner basis; standard monomials as k-basis.

    It rejects an inhomogeneous ideal and the whole ring with an InputError.
    These are the one homogeneity check and the one unit-ideal check of
    every command that needs R/I: the Koszul, Betti, Massey and resolution
    layers all take a quotient.  Multiplication is by normal form and
    memoized, since the Koszul and resolution strands hit the same products
    constantly.  It owns its Koszul complex and its Betti table (kept by
    `koszul.quotient_betti`).
    """

    def __init__(self, gb: GroebnerBasis):
        if not all(g.is_homogeneous() for g in gb.gens):
            raise InputError("R/I needs a homogeneous ideal")
        if not all(any(l) for l in gb.lts):
            raise InputError(UNIT_IDEAL)
        self.gb = gb
        self.ring = gb.ring
        self.field = gb.ring.field
        self._std = {}
        self._mult = {}
        self.is_monomial = all(g.is_monomial() for g in gb.gens)
        self._koszul = None
        self._betti = None

    def koszul(self) -> KoszulComplex:
        if self._koszul is None:
            self._koszul = KoszulComplex(self)
        return self._koszul

    def nf(self, f: Polynomial) -> Polynomial:
        return self.gb.nf(f)

    def std_monomials(self, d: int):
        """Standard monomials of total degree d, sorted ascending."""
        if d not in self._std:
            lts = self.gb.lts
            out = [
                m
                for m in monomials_of_degree(self.ring.nvars, d)
                if not any(mono_divides(l, m) for l in lts)
            ]
            out.sort()
            self._std[d] = tuple(out)
        return self._std[d]

    def contains_mono(self, m: Mono) -> bool:
        return any(mono_divides(l, m) for l in self.gb.lts)

    def mult_var(self, i: int, m: Mono) -> dict:
        """x_i * m as {std monomial: coef} in the quotient."""
        key = (i, m)
        if key not in self._mult:
            prod = mono_mul(self.ring.unit_mono(i), m)
            if self.is_monomial:
                self._mult[key] = {} if self.contains_mono(prod) else {prod: self.field.one}
            else:
                r = self.nf(self.ring.monomial(prod))
                self._mult[key] = dict(r.terms)
        return self._mult[key]

    def mult_mono(self, a: Mono, m: Mono) -> dict:
        """a * m in the quotient, a an arbitrary monomial."""
        F = self.field
        cur = {m: F.one}
        for i, e in enumerate(a):
            for _ in range(e):
                nxt = {}
                for mm, c in cur.items():
                    axpy(nxt, c, self.mult_var(i, mm), F)
                cur = nxt
        return cur
