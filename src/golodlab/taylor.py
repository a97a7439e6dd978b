"""Betti numbers of a monomial quotient, strand by strand of its Taylor complex.

The Taylor complex on the minimal generators g_1..g_r of I has basis e_S
for S a set of generators, in multidegree lcm(S); tensored with k, only the
differential coefficients that keep the lcm survive, so it splits into one
strand per element m of the lcm lattice.  The strand at m is the full
simplex on D(m), the generators that divide m, relative to its subcomplex

    Delta_{<m} = {S in D(m) : lcm(S) != m},

so beta_{i,m}(R/I) = dim H~_{i-2}(Delta_{<m}; k) (Gasharov-Peeva-Welker,
Math. Res. Lett. 6 (1999); Miller-Sturmfels, Combinatorial Commutative
Algebra, Thm 1.34).  Delta_{<m} is generated by the sets
C_v = {g in D(m) : g_v < m_v}, v in supp m.  By Dowker duality the same
relation g_v < m_v, read the other way, gives K^m: the complex on supp m
generated by one facet {v : g_v < m_v} per g in D(m), the upper Koszul
simplicial complex of Miller-Sturmfels, with the same homology.  So each
strand is a small simplicial complex on whichever side has fewer vertices,
and its ranks are exact over the coefficient field: the characteristic
matters and is respected.
"""
from __future__ import annotations

from functools import reduce
from operator import and_

from .betti import BettiTable
from .errors import CapExceededError
from .linalg import rank_of
from .monomial import MonomialIdeal, lcm_lattice
from .rings import mono_deg

# lattice elements and simplicial faces one table may build before
# CapExceededError
FACE_BUDGET = 200_000


def taylor_betti(I: MonomialIdeal) -> BettiTable:
    """Graded (and multigraded) Betti numbers of R/I."""
    gens = I.gens
    F = I.ring.field
    lattice = lcm_lattice(gens, FACE_BUDGET)
    spent = len(lattice)
    # at_most[v][e]: the generators g with g_v <= e, as a bitmask
    at_most = []
    for col in zip(*gens):
        masks = [0] * (max(col) + 1)
        for k, e in enumerate(col):
            masks[e] |= 1 << k
        for e in range(1, len(masks)):
            masks[e] |= masks[e - 1]
        at_most.append(masks)
    entries = {(0, 0): 1}
    multigraded = {(0, I.ring.zero_mono()): 1}
    for m in lattice:
        below = reduce(and_, map(list.__getitem__, at_most, m))  # D(m)
        r = below.bit_count()
        if r <= 2:
            # one generator: Delta_{<m} = {empty}; two: two points
            strand = {r: 1}
        else:
            strand, built = _strand_betti(
                [below & at_most[v][e - 1] for v, e in enumerate(m) if e],
                F,
                FACE_BUDGET - spent,
            )
            spent += built
        d = mono_deg(m)
        for i, b in strand.items():
            entries[(i, d)] = entries.get((i, d), 0) + b
            multigraded[(i, m)] = b
    return BettiTable(entries, multigraded)


def _maximal(sets) -> list:
    """The distinct inclusion-maximal sets among bitmasks."""
    out = []
    for s in sorted(set(sets), key=int.bit_count, reverse=True):
        if all(s & ~t for t in out):
            out.append(s)
    return out


def _dual(sets) -> list:
    """The Dowker dual: for each element of the union, the set of positions
    of the sets that hold it."""
    rest = reduce(int.__or__, sets, 0)
    out = []
    while rest:
        low = rest & -rest
        out.append(sum(1 << j for j, s in enumerate(sets) if s & low))
        rest ^= low
    return out


def _exhausted():
    raise CapExceededError(
        "Taylor strand budget exhausted (%d lattice elements and faces)" % FACE_BUDGET
    )


def _strand_betti(facets, F, room: int):
    """({i: beta_i}, faces built), with beta_i = dim H~_{i-2} of the
    nonempty complex generated by `facets`; CapExceededError once more
    than `room` faces would be built.

    Non-maximal facets go, and so do dominated vertices, which are the
    non-maximal facets of the dual; both steps keep the homotopy type.
    They alternate until neither applies, and a complex found to be a cone
    on the way has no homology.  The faces are then built on the side with
    fewer vertices."""
    facets = _maximal(facets)
    while True:
        if reduce(and_, facets):  # a cone, or one facet
            return {}, 0
        dual = _dual(facets)
        kept = _maximal(dual)
        if len(kept) == len(dual):
            break
        facets = kept
    if len(facets) < len(dual):
        facets = dual
    # levels[k]: the faces with k vertices; every complex here has a vertex
    levels = [{0}]
    for f in facets:
        k = f.bit_count()
        while len(levels) <= k:
            levels.append(set())
        levels[k].add(f)
    built = 0
    for k in range(len(levels) - 1, 0, -1):
        built += len(levels[k])
        if built > room:
            _exhausted()
        if k == 1:
            break
        below = levels[k - 1]
        for face in levels[k]:
            rest = face
            while rest:
                low = rest & -rest
                below.add(face ^ low)
                rest ^= low
            if built + len(below) > room:
                _exhausted()
    one, minus = F.one, F.neg(F.one)
    # ranks[k]: rank of the boundary from the faces with k vertices; the
    # vertices all map onto the empty face
    ranks = [0, 1]
    for k in range(2, len(levels)):
        cols = []
        for face in levels[k]:
            col = {}
            pos, rest = 0, face
            while rest:
                low = rest & -rest
                col[face ^ low] = minus if pos & 1 else one
                pos += 1
                rest ^= low
            cols.append(col)
        ranks.append(rank_of(cols, F))
    ranks.append(0)
    out = {}
    for k in range(1, len(levels)):
        h = len(levels[k]) - ranks[k] - ranks[k + 1]
        if h:
            out[k + 1] = h
    return out, built
