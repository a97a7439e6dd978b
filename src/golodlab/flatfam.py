"""Flat families connecting an ideal with its initial ideal.

Given a term order < on R = k[x_1..x_n], pick a weight vector w representing
< on the finitely many monomials in play (a reduced Groebner basis).  Each
basis element g is homogenized to g^h in R[t], where t tracks the weight
deficiency of each term: the ambient ring carries weights (w_1..w_n, 1) and
g^h is homogeneous for them.  Setting t = 0 picks out the w-initial forms
(the monomial initial ideal, since w represents <); setting t = 1 recovers g.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InconsistencyError, InputError
from .linalg import axpy
from .monomial import MonomialIdeal
from .orders import TermOrder
from .rings import PolyRing, Polynomial


def extend_ring_with_t(ring: PolyRing, weights) -> PolyRing:
    base = "t"
    taken = set(ring.names)
    name = base
    k = 0
    while name in taken:
        k += 1
        name = "t%d" % k
    return PolyRing(ring.names + (name,), ring.field, weights=tuple(weights) + (1,))


def weighted_top(f: Polynomial, w) -> int:
    if f.is_zero():
        raise InputError("cannot homogenize the zero polynomial")
    return max(sum(wi * e for wi, e in zip(w, m)) for m in f.terms)


def homogenize_poly(f: Polynomial, ext: PolyRing, w) -> Polynomial:
    """f^h in ext = R[t]: each term a gets t^(W - w(a)), W the top w-weight.

    The result is homogeneous of weighted degree W for ext's weights and its
    t-free part consists exactly of the terms of maximal w-weight.
    """
    W = weighted_top(f, w)
    terms = {}
    for m, c in f.terms.items():
        gap = W - sum(wi * e for wi, e in zip(w, m))
        terms[m + (gap,)] = c
    return Polynomial(ext, terms)


def specialize_t(fh: Polynomial, base: PolyRing, value: int) -> Polynomial:
    """Set t (the last variable) to 0 or 1 and land back in the base ring."""
    terms = {}
    for m, c in fh.terms.items():
        if value == 0 and m[-1] > 0:
            continue
        axpy(terms, 1, {m[:-1]: c}, base.field)
    return Polynomial(base, terms)


def initial_form(f: Polynomial, w) -> Polynomial:
    """Sum of the terms of top w-weight."""
    W = weighted_top(f, w)
    keep = {
        m: c
        for m, c in f.terms.items()
        if sum(wi * e for wi, e in zip(w, m)) == W
    }
    return Polynomial(f.ring, keep)


@dataclass
class HomogenizedIdeal:
    base: PolyRing
    ext: PolyRing
    order: TermOrder
    weights: tuple  # base-ring part only; ext appends 1 for t
    source_gens: tuple
    gens: tuple  # homogenized generators, in ext

    @property
    def t_name(self) -> str:
        return self.ext.names[-1]

    def fiber(self, value: int):
        return tuple(specialize_t(g, self.base, value) for g in self.gens)


def homogenize_ideal(gb) -> HomogenizedIdeal:
    """Homogenize a reduced Groebner basis along a weight representing its
    order.  Self-checks both fibers generator by generator: t=1 must return
    the input and t=0 its leading monomial."""
    ring, order = gb.ring, gb.order
    monos = [m for g in gb.gens for m in g.terms]
    w = order.representing_weight(monos)
    ext = extend_ring_with_t(ring, w)
    out = []
    for g in gb.gens:
        gh = homogenize_poly(g, ext, w)
        if not gh.is_homogeneous(weighted=True):
            raise InconsistencyError("homogenization is not t-homogeneous")
        if specialize_t(gh, ring, 1) != g:
            raise InconsistencyError("t=1 fiber does not recover the generator")
        at0 = specialize_t(gh, ring, 0)
        if at0 != initial_form(g, w):
            raise InconsistencyError("t=0 fiber is not the w-initial form")
        if order.leading_mono(at0) != order.leading_mono(g) or not at0.is_monomial():
            raise InconsistencyError(
                "representing weight failed to isolate the leading term of %r" % g
            )
        out.append(gh)
    return HomogenizedIdeal(ring, ext, order, w, tuple(gb.gens), tuple(out))


def degeneration_summary(gb) -> dict:
    """Machine-readable record of the family over the Groebner basis."""
    H = homogenize_ideal(gb)
    init = MonomialIdeal.from_polys(H.fiber(0))
    return {
        "ring": "%s[%s]" % (
            "QQ" if gb.ring.field.char == 0 else "F%d" % gb.ring.field.char,
            ",".join(gb.ring.names),
        ),
        "order": gb.order.descriptor(gb.ring),
        "weights": list(H.weights),
        "t": H.t_name,
        "groebner_size": len(gb.gens),
        "initial_gens": sorted(gb.ring.mono_str(m) for m in init.gens),
    }
