"""Monomial ideals and the combinatorial toolkit around them: polarization
and rainbow structure detection.
"""
from __future__ import annotations

import itertools
import string
from dataclasses import dataclass
from typing import Optional

from .errors import UNIT_IDEAL, CapExceededError, InconsistencyError, InputError
from .rings import (
    Mono,
    PolyRing,
    mono_deg,
    mono_divides,
    mono_is_squarefree,
    mono_lcm,
    mono_mul,
    mono_support,
)

# detect_rainbow searches colorings with at most this many classes, on rings
# with at most this many variables
RAINBOW_MAX_COLORS = 6
RAINBOW_MAX_VARS = 24


def display_sorted(monos):
    """Degree first, then descending grevlex: the usual reading order for a
    graded generator list."""
    return sorted(
        monos, key=lambda m: (mono_deg(m), tuple(m[i] for i in reversed(range(len(m)))))
    )


def minimalize(monos):
    """Keep the divisibility-minimal monomials."""
    out = []
    ms = sorted(set(monos), key=lambda m: (mono_deg(m), m))
    for m in ms:
        if not any(mono_divides(p, m) for p in out):
            out.append(m)
    return tuple(sorted(out))


def lcm_lattice(gens, limit: Optional[int] = None) -> list:
    """Every join of the monomials `gens`, sorted by (degree, exponents):
    the multidegrees, besides the origin, where the Taylor complex on
    `gens` lives.  CapExceededError once there are more than `limit`."""
    joins = set()
    for g in gens:
        # the joins of subsets of the generators before g, then with g
        joins |= {mono_lcm(a, g) for a in joins}
        joins.add(g)
        if limit is not None and len(joins) > limit:
            raise CapExceededError("lcm lattice has more than %d elements" % limit)
    return sorted(joins, key=lambda m: (mono_deg(m), m))


@dataclass(frozen=True)
class MonomialIdeal:
    ring: PolyRing
    gens: tuple  # minimal generators, sorted exponent tuples

    @classmethod
    def from_monos(cls, ring: PolyRing, monos) -> "MonomialIdeal":
        monos = [tuple(m) for m in monos]
        for m in monos:
            if len(m) != ring.nvars:
                raise InputError("exponent tuple length mismatch")
            if all(e == 0 for e in m):
                raise InputError(UNIT_IDEAL)
        return cls(ring, minimalize(monos))

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        if self.ring != other.ring:
            raise InputError("ideals in different rings")
        return MonomialIdeal.from_monos(
            self.ring, [mono_mul(a, b) for a in self.gens for b in other.gens]
        )

    def power(self, t: int) -> "MonomialIdeal":
        if t < 1:
            raise InputError("power exponent must be >= 1")
        out = self
        for _ in range(t - 1):
            out = out * self
        return out

    def is_squarefree(self) -> bool:
        return all(mono_is_squarefree(g) for g in self.gens)

    def gen_degrees(self):
        return tuple(mono_deg(g) for g in self.gens)

    def polys(self):
        return [self.ring.monomial(g) for g in self.gens]

    def __repr__(self):
        return "<MonomialIdeal (%s)>" % ", ".join(self.ring.mono_str(g) for g in self.gens)


@dataclass
class Polarization:
    source: MonomialIdeal
    ideal: MonomialIdeal  # the squarefree polarized ideal
    owners: tuple  # polarized-ring variable index -> source variable index

    @property
    def ring(self) -> PolyRing:
        return self.ideal.ring

    def depolarize(self, m: Mono) -> Mono:
        """m with each copy of a variable sent back to its owner."""
        out = [0] * self.source.ring.nvars
        for j, e in enumerate(m):
            out[self.owners[j]] += e
        return tuple(out)


def _polar_names(ring: PolyRing, heights):
    """Copy names for polarization: x -> x1, x2, ... when the original name
    is a bare letter; otherwise each original variable gets a fresh letter."""
    bare = all(len(nm) == 1 for nm in ring.names)
    letters = [nm for nm in ring.names] if bare else list(string.ascii_lowercase)
    if not bare and ring.nvars > len(letters):
        raise CapExceededError("too many variables to relabel for polarization")
    names = []
    owners = []
    for i in range(ring.nvars):
        h = heights[i]
        base = letters[i]
        for k in range(1, h + 1):
            names.append("%s%d" % (base, k))
            owners.append(i)
    return tuple(names), owners


def polarize(I: MonomialIdeal) -> Polarization:
    """Standard polarization: x_i^e splits into e distinct copies.

    The variable differences (copy_k - copy_1) cut the polarized quotient
    back down to R/I and form a regular sequence on it (Herzog-Hibi,
    Monomial Ideals, Prop. 1.6.2), one per copy beyond the first.  The
    construction is checked where the transfer uses it (analyzer rule 5),
    against the Betti tables of both quotients.
    """
    ring = I.ring
    heights = [max((g[i] for g in I.gens), default=0) for i in range(ring.nvars)]
    heights = [max(h, 1) for h in heights]
    names, owners = _polar_names(ring, heights)
    polar_ring = PolyRing(names, ring.field)
    slot = {}
    for j, i in enumerate(owners):
        slot.setdefault(i, []).append(j)
    polar_gens = []
    for g in I.gens:
        m = [0] * polar_ring.nvars
        for i, e in enumerate(g):
            for k in range(e):
                m[slot[i][k]] = 1
        polar_gens.append(tuple(m))
    return Polarization(I, MonomialIdeal.from_monos(polar_ring, polar_gens), tuple(owners))


@dataclass(frozen=True)
class RainbowStructure:
    """A partition of the variables into ordered color classes such that
    every generator picks exactly one variable from each class."""

    ring: PolyRing
    classes: tuple  # tuple of tuples of variable indices

    def describe(self):
        return [
            [self.ring.names[v] for v in cls] for cls in self.classes
        ]


@dataclass
class RainbowDetectResult:
    status: str  # "found" | "not_found" | "bound_exceeded"
    structure: Optional[RainbowStructure] = None
    reason: str = ""
    searched_colors: Optional[int] = None


def validate_rainbow(I: MonomialIdeal, structure: RainbowStructure) -> bool:
    """Every generator has degree the number of classes and degree 1 on
    each class, which also rules out squares and uncoloured variables."""
    classes = structure.classes
    return all(
        mono_deg(g) == len(classes) and all(sum(g[v] for v in cls) == 1 for cls in classes)
        for g in I.gens
    )


def detect_rainbow(I: MonomialIdeal) -> RainbowDetectResult:
    """Search for a rainbow structure on a monomial ideal.

    The class count is forced: squarefree generators of uniform degree n need
    exactly n classes.  Finding one is a proper coloring problem on the
    co-occurrence graph; the search is exhaustive, so not_found is definitive
    within the stated bounds.  Variables outside every generator are appended
    to the first class.
    """
    degs = set(I.gen_degrees())
    if len(degs) != 1:
        return RainbowDetectResult("not_found", reason="generators not equigenerated")
    if not I.is_squarefree():
        return RainbowDetectResult("not_found", reason="generators not squarefree")
    n = degs.pop()
    if n > RAINBOW_MAX_COLORS:
        return RainbowDetectResult(
            "bound_exceeded",
            reason="would need %d classes, searched up to %d" % (n, RAINBOW_MAX_COLORS),
            searched_colors=RAINBOW_MAX_COLORS,
        )
    if I.ring.nvars > RAINBOW_MAX_VARS:
        return RainbowDetectResult(
            "bound_exceeded",
            reason="%d variables exceeds cap %d" % (I.ring.nvars, RAINBOW_MAX_VARS),
        )
    support = sorted({v for g in I.gens for v in mono_support(g)})
    adj = {v: set() for v in support}
    cliques = [mono_support(g) for g in I.gens]
    for cl in cliques:
        for a, b in itertools.combinations(cl, 2):
            adj[a].add(b)
            adj[b].add(a)
    if n == 1:
        # every generator is a single variable
        classes = (tuple(sorted(set(support) | set(range(I.ring.nvars)))),)
        return RainbowDetectResult("found", RainbowStructure(I.ring, classes))
    order = sorted(support, key=lambda v: (-len(adj[v]), v))
    color = {}

    def bt(k: int) -> bool:
        if k == len(order):
            return True
        v = order[k]
        used = max(color.values(), default=-1)
        for c in range(min(used + 1, n - 1) + 1):
            if any(color.get(u) == c for u in adj[v]):
                continue
            color[v] = c
            if bt(k + 1):
                return True
            del color[v]
        return False

    if not bt(0):
        return RainbowDetectResult(
            "not_found",
            reason="no %d-class rainbow coloring exists" % n,
            searched_colors=n,
        )
    classes = [[] for _ in range(n)]
    for v in support:
        classes[color[v]].append(v)
    for v in range(I.ring.nvars):
        if v not in color:
            classes[0].append(v)
    classes = [tuple(sorted(c)) for c in classes]
    classes.sort(key=lambda c: c[0])
    st = RainbowStructure(I.ring, tuple(classes))
    if not validate_rainbow(I, st):
        raise InconsistencyError("search produced a non-rainbow coloring")
    return RainbowDetectResult("found", st, searched_colors=n)
