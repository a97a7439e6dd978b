"""Taylor-complex Betti number oracle for monomial ideals.

The Taylor complex on generators m_1..m_r has basis e_S for S a subset of
generators, in multidegree lcm(S).  Tensoring with k kills every differential
coefficient except where dropping an element keeps the lcm, so graded Betti
numbers are strand-by-strand kernel/image dimensions over the lcm lattice.
Exact ranks over the coefficient field; characteristic matters and is
respected.
"""
from __future__ import annotations

from .betti import BettiTable
from .errors import CapExceededError
from .linalg import rank_of
from .monomial import MonomialIdeal
from .rings import mono_deg, mono_lcm

# 2^r subsets: past this many generators the Koszul engine takes over
TAYLOR_MAX_GENS = 18


def taylor_betti(I: MonomialIdeal) -> BettiTable:
    """Graded (and multigraded) Betti numbers of R/I."""
    gens = I.gens
    r = len(gens)
    if r > TAYLOR_MAX_GENS:
        raise CapExceededError(
            "Taylor complex on %d generators exceeds cap %d" % (r, TAYLOR_MAX_GENS)
        )
    F = I.ring.field
    zero = I.ring.zero_mono()
    lcm = [zero] * (1 << r)
    for mask in range(1, 1 << r):
        low = mask & -mask
        lcm[mask] = mono_lcm(lcm[mask ^ low], gens[low.bit_length() - 1])
    strata = {}
    for mask in range(1 << r):
        strata.setdefault(lcm[mask], []).append(mask)
    entries = {}
    multigraded = {}
    one = F.one
    for alpha, masks in strata.items():
        members = set(masks)
        by_card = {}
        for m in masks:
            by_card.setdefault(bin(m).count("1"), []).append(m)
        cards = sorted(by_card)
        # rank of the strand differential leaving homological degree i
        ranks = {}
        for i in cards:
            if i == 0:
                continue
            cols = []
            for mask in by_card[i]:
                col = {}
                bits = [b for b in range(r) if mask >> b & 1]
                for pos, b in enumerate(bits):
                    sub = mask ^ (1 << b)
                    if sub in members:
                        col[sub] = one if pos % 2 == 0 else F.neg(one)
                if col:
                    cols.append(col)
            ranks[i] = rank_of(cols, F)
        d = mono_deg(alpha)
        for i in cards:
            h = len(by_card[i]) - ranks.get(i, 0) - ranks.get(i + 1, 0)
            if h:
                entries[(i, d)] = entries.get((i, d), 0) + h
                multigraded[(i, alpha)] = multigraded.get((i, alpha), 0) + h
    return BettiTable(entries, multigraded)
