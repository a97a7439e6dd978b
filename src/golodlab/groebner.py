"""Buchberger with Gebauer-Moeller pair pruning, reduced bases, normal
forms, initial ideals, and standard-monomial bases of quotient rings.

Reduced Groebner bases are unique for (ideal, order), so downstream
serialization and equality tests lean on that.

Monomial bases.  `GroebnerBasis` runs no Buchberger pass on monomial
generators (every in(I), every polarization), and it alone decides
whether a basis is monomial: every other layer reads `is_monomial`.

Leading data.  A basis element's leading monomial and coefficient are found
once: `GroebnerBasis.leads` holds (leading monomial, leading coefficient,
element) for each member of the reduced basis, beside `lts`.  `buchberger`
keeps the same list for its working basis and appends each S-pair
remainder's entry, read off the remainder's first term, and `_interreduce`
carries it to the final scaling.  The one reducer, `_reduce`, takes such a
list; `normal_form(f, basis, order)` derives it once per call.

Monomial normal forms.  Over a quotient that is not monomial,
`QuotientRing.mult_var(i, m)` reads the normal form of x_i*m from a memo of
monomial normal forms kept on the quotient.  A standard monomial is its own
normal form.  Any other monomial mu is reduced once, by the first basis
element g whose leading term divides mu, and is the combination of the
memoized normal forms of the monomials of mu's tail, (mu / lt(g)) * (g -
lt(g)) scaled.  Those monomials are smaller than mu, so an explicit stack
resolves them with no recursion.  The fully reduced normal form modulo a
Groebner basis is unique, so the memo's value equals what `normal_form`
returns on the monomial, whatever reductions built it.  The memo stores its
terms in descending term order, which is the order `_reduce` emits them in,
so `mult_var` returns equal dicts in equal key order either way.
"""
from __future__ import annotations

from operator import le

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


def _leads(basis, key) -> list:
    """(leading monomial, leading coefficient, element) of each nonzero
    member of basis, in basis order."""
    out = []
    for g in basis:
        if g.terms:
            m = max(g.terms, key=key)
            out.append((m, g.terms[m], g))
    return out


def _shifted(terms: dict, q: Mono) -> dict:
    return {mono_mul(t, q): c for t, c in terms.items()}


def _reduce(p: dict, leads, key, F) -> dict:
    """Fully reduced remainder of the terms p modulo the elements of leads,
    each term reduced by the first element whose leading monomial divides
    it.  p is consumed; the remainder's terms come in descending order."""
    rem = {}
    while p:
        m = max(p, key=key)
        c = p[m]
        for ltm, ltc, g in leads:
            if all(map(le, ltm, m)):  # mono_divides, inlined in the hot loop
                axpy(p, F.neg(F.div(c, ltc)), _shifted(g.terms, mono_div(m, ltm)), F)
                break
        else:
            rem[m] = c
            del p[m]
    return rem


def normal_form(f: Polynomial, basis, order: TermOrder) -> Polynomial:
    """Fully reduced remainder of f modulo basis (every term reduced)."""
    F = f.ring.field
    return Polynomial(f.ring, _reduce(dict(f.terms), _leads(basis, order.key), order.key, F))


def _s_terms(a, b, F) -> dict:
    """The S-polynomial of the elements of two leads entries, as terms: two
    accumulations into one dict."""
    (la, ca, fa), (lb, cb, fb) = a, b
    l = mono_lcm(la, lb)
    s = axpy({}, F.inv(ca), _shifted(fa.terms, mono_div(l, la)), F)
    return axpy(s, F.neg(F.inv(cb)), _shifted(fb.terms, mono_div(l, lb)), F)


def s_polynomial(f: Polynomial, g: Polynomial, order: TermOrder) -> Polynomial:
    return Polynomial(f.ring, _s_terms(*_leads((f, g), order.key), f.ring.field))


def _gm_update(pairs: dict, lts, h: int, key) -> dict:
    """Gebauer-Moeller: the pairs that survive generator h joining.  pairs
    maps each index pair (i, j), i < j < h, to (key(lcm), (i, j), lcm), so
    the smallest value is the next pair to reduce."""
    lth = lts[h]
    with_h = [mono_lcm(lt, lth) for lt in lts[:h]]
    out = {}
    for (i, j), entry in pairs.items():
        l = entry[2]
        if mono_divides(lth, l) and with_h[i] != l and with_h[j] != l:
            continue
        out[i, j] = entry
    cand = {}
    for i, l in enumerate(with_h):
        cand.setdefault(l, []).append(i)
    for l, group in cand.items():
        # keep only lcm-minimal groups
        if any(l2 != l and mono_divides(l2, l) for l2 in cand):
            continue
        # product criterion kills the whole lcm class
        if any(mono_mul(lts[i], lth) == l for i in group):
            continue
        out[group[0], h] = (key(l), (group[0], h), l)
    return out


def buchberger(gens, order: TermOrder):
    """Return the reduced Groebner basis (monic, sorted by leading term)."""
    key = order.key
    leads = _leads(gens, key)
    if not leads:
        return ()
    ring = leads[0][2].ring
    F = ring.field
    lts = []
    pairs = {}
    for h, (lt, _, _) in enumerate(leads):
        lts.append(lt)
        pairs = _gm_update(pairs, lts, h, key)
    while pairs:
        _, (i, j), _ = min(pairs.values())
        del pairs[i, j]
        r = _reduce(_s_terms(leads[i], leads[j], F), leads, key, F)
        if r:
            lt = next(iter(r))
            leads.append((lt, r[lt], Polynomial(ring, r)))
            lts.append(lt)
            pairs = _gm_update(pairs, lts, len(lts) - 1, key)
    return _interreduce(leads, key, F)


def _interreduce(leads, key, F):
    """The reduced basis from the leads of a Groebner basis.

    Walking the members by ascending leading term, a member whose leading
    term a kept one divides is dropped (among equal leading terms the first
    member is kept), and the rest is reduced by the kept ones.  Only
    earlier members can divide a term below a member's leading term, so one
    pass reduces every member fully; a member with nothing to reduce keeps
    its own term order.  Each is then scaled monic by its leading
    coefficient."""
    basis = []
    for lt, c, g in sorted(leads, key=lambda a: key(a[0])):
        if any(all(map(le, b[0], lt)) for b in basis):
            continue
        r = _reduce(dict(g.terms), basis, key, F)
        basis.append((lt, c, g if r == g.terms else Polynomial(g.ring, r)))
    return tuple(g.scale(F.inv(c)) for _, c, g in basis)


class GroebnerBasis:
    """A reduced Groebner basis with its ring and order; it owns in(I), R/I
    and R/in(I), each built on first request.  Non-constant monomial
    generators need no Buchberger pass: their minimal ones, monic and by
    ascending leading term, are the reduced basis.  `is_monomial` holds
    when the reduced basis, and so the ideal, is monomial."""

    def __init__(self, ring: PolyRing, order: TermOrder, gens):
        self.ring = ring
        self.order = order
        gens = list(gens)
        for g in gens:
            if g.ring != ring:
                raise InputError("generator from a different ring")
        gens = [g for g in gens if g.terms]
        monos = [m for g in gens for m in g.terms]
        self._initial_ideal = None
        if len(monos) == len(gens) and all(map(any, monos)):  # one non-constant term each
            self._initial_ideal = MonomialIdeal.from_monos(ring, monos)
            self.gens = tuple(ring.monomial(m) for m in sorted(self._initial_ideal.gens, key=order.key))
        else:
            self.gens = buchberger(gens, order)
        self.is_monomial = all(len(g.terms) == 1 for g in self.gens)
        self.lts = tuple(order.leading_mono(g) for g in self.gens)
        self.leads = tuple((m, g.terms[m], g) for m, g in zip(self.lts, self.gens))
        self._quotient = None
        self._initial_quotient = None

    def nf(self, f: Polynomial) -> Polynomial:
        F = self.ring.field
        return Polynomial(self.ring, _reduce(dict(f.terms), self.leads, self.order.key, F))

    def initial_ideal(self) -> MonomialIdeal:
        if self._initial_ideal is None:
            self._initial_ideal = MonomialIdeal.from_monos(self.ring, self.lts)
        return self._initial_ideal

    def quotient(self) -> "QuotientRing":
        if self._quotient is None:
            self._quotient = QuotientRing(self)
        return self._quotient

    def initial_quotient(self) -> "QuotientRing":
        """R/in(I), the quotient of the basis that the minimal generators of
        in(I) form for any order.  A monomial basis spans in(I) itself, so
        its R/in(I) is R/I, and one table serves both."""
        if self._initial_quotient is None:
            if self.is_monomial:
                self._initial_quotient = self.quotient()
            else:
                gb = GroebnerBasis(self.ring, self.order, self.initial_ideal().polys())
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
    constantly; the normal forms of monomials are memoized beneath it.  It owns its Koszul complex and its Betti table (kept by
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
        self._mono_nf = {}
        self.is_monomial = gb.is_monomial
        self._koszul = None
        self._betti = None

    def koszul(self) -> KoszulComplex:
        if self._koszul is None:
            self._koszul = KoszulComplex(self)
        return self._koszul

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
        """x_i * m as {std monomial: coef} in the quotient, in descending
        term order."""
        key = (i, m)
        if key not in self._mult:
            prod = mono_mul(self.ring.unit_mono(i), m)
            if self.is_monomial:
                self._mult[key] = {} if self.contains_mono(prod) else {prod: self.field.one}
            else:
                self._mult[key] = self._normal_form_of(prod)
        return self._mult[key]

    def _normal_form_of(self, mu: Mono) -> dict:
        """The normal form of the monomial mu, through the memo of monomial
        normal forms (see the module docstring).  A monomial whose tail
        monomials are not all memoized yet waits on the stack under them
        and is reduced again once they are."""
        memo, leads, F = self._mono_nf, self.gb.leads, self.field
        key = self.gb.order.key
        stack = [mu]
        while stack:
            m = stack[-1]
            if m in memo:
                stack.pop()
                continue
            for ltm, ltc, g in leads:
                if all(map(le, ltm, m)):
                    break
            else:
                memo[m] = {m: F.one}
                stack.pop()
                continue
            q = mono_div(m, ltm)
            tail = [(mono_mul(t, q), c) for t, c in g.terms.items() if t != ltm]
            todo = [t for t, _ in tail if t not in memo]
            if todo:
                stack += todo
                continue
            acc = {}
            for t, c in tail:
                axpy(acc, F.neg(F.div(c, ltc)), memo[t], F)
            memo[m] = {t: acc[t] for t in sorted(acc, key=key, reverse=True)}
            stack.pop()
        return memo[mu]

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
