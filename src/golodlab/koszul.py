"""Koszul homology of a quotient ring A = R/I.

The Koszul complex K on the variables x_1..x_n, tensored with A, computes
Tor^R(A, k).  Elements are stored as dictionaries keyed by (S, m): S an
ascending tuple of variable indices (the wedge factor e_S), m the exponent
tuple of a standard monomial of A.  All polynomial coefficients are kept in
normal form with respect to A's Groebner basis.

Conventions.  For S = (s_0 < ... < s_{k-1}):

    d(m e_S) = sum_p (-1)^p (x_{s_p} m) e_{S minus s_p}

so d(e_1 ^ e_2) = x_1 e_2 - x_2 e_1.  Wedge signs count inversions between
the two index sets.  Homological degree i = |S|; internal degree
j = deg(m) + |S|; multidegree = m + indicator(S).

Grading.  Each KoszulComplex fixes its grading once, from its quotient: a
monomial quotient is multigraded, so a strand is keyed by a multidegree
alpha and holds at most one monomial per wedge factor; any other graded
quotient is graded by internal degree j.  Every strand method takes the key
of that one grading.

Strand records.  `strand(i, key)` builds a strand once per complex: its
basis, the pairs (S, m) in a fixed order, together with their differentials
as columns, and charges the basis size once against STRAND_BUDGET.
`homology`, `betti_entry` and `boundary_preimage` read the columns from
that record, however often they visit the strand; only
`KoszulElement.differential` differentiates term by term.

Which strands carry homology.  By balancing Tor, the strand (i, key) of
H_i(K tensor A) is Tor_i^R(A, k)_key, whose dimension is the Betti number
beta_{i,key} of A over R.  So the support of the Betti table that A owns
(`quotient_betti`) is exactly the set of strands with homology, and
`homology_basis` visits only those.  Koszul strands compute such a table
only for a quotient that is not monomial (`koszul_betti`, on the strands
of R/in(I)'s table that a consecutive cancellation could lower); a
monomial quotient's table comes from `taylor.taylor_betti`, strand by strand
of the Taylor complex, so tabulating it builds no Koszul strand.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .betti import BettiTable
from .errors import CapExceededError, InconsistencyError, InputError
from .linalg import Eliminator, axpy, kernel_basis, rank_of, solve_columns
from .rings import mono_deg
from .taylor import taylor_betti

Pair = tuple  # (S, m)


def wedge_sign(S1, S2) -> int:
    inv = 0
    for a in S1:
        for b in S2:
            if a > b:
                inv += 1
    return -1 if inv % 2 else 1


def multidegree(S, m) -> tuple:
    out = list(m)
    for s in S:
        out[s] += 1
    return tuple(out)


class KoszulElement:
    __slots__ = ("quot", "terms")

    def __init__(self, quot, terms: dict):
        self.quot = quot
        self.terms = {k: c for k, c in terms.items() if c != quot.field.zero}

    @classmethod
    def zero(cls, quot) -> "KoszulElement":
        return cls(quot, {})

    @classmethod
    def wedge_monomial(cls, quot, S) -> "KoszulElement":
        """e_S with coefficient 1."""
        S = tuple(sorted(S))
        if len(set(S)) != len(S):
            raise InputError("repeated index in wedge %r" % (S,))
        unit = tuple([0] * quot.ring.nvars)
        return cls(quot, {(S, unit): quot.field.one})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, KoszulElement) and self.terms == other.terms

    def __add__(self, other) -> "KoszulElement":
        return KoszulElement(self.quot, axpy(dict(self.terms), 1, other.terms, self.quot.field))

    def __sub__(self, other) -> "KoszulElement":
        return self + other.neg()

    def neg(self) -> "KoszulElement":
        fld = self.quot.field
        return KoszulElement(self.quot, {k: fld.neg(c) for k, c in self.terms.items()})

    def signed(self) -> "KoszulElement":
        """(-1)^(deg+1) * self, the bar involution used in Massey equations.

        Requires homological homogeneity.
        """
        d = self.hom_degree()
        if d is None or d % 2 == 1:
            return self
        return self.neg()

    def hom_degrees(self) -> set:
        return {len(S) for S, _ in self.terms}

    def hom_degree(self) -> Optional[int]:
        ds = self.hom_degrees()
        if not ds:
            return None
        if len(ds) > 1:
            raise InputError("element is not homologically homogeneous")
        return ds.pop()

    def wedge(self, other: "KoszulElement") -> "KoszulElement":
        quot, fld = self.quot, self.quot.field
        out = {}
        for (S1, m1), c1 in self.terms.items():
            for (S2, m2), c2 in other.terms.items():
                if set(S1) & set(S2):
                    continue
                sgn = wedge_sign(S1, S2)
                S = tuple(sorted(S1 + S2))
                c = fld.mul(c1, c2)
                if sgn < 0:
                    c = fld.neg(c)
                axpy(out, c, {(S, m): cm for m, cm in quot.mult_mono(m1, m2).items()}, fld)
        return KoszulElement(quot, out)

    def differential(self) -> "KoszulElement":
        kz, fld = self.quot.koszul(), self.quot.field
        out = {}
        for pair, c in self.terms.items():
            axpy(out, c, kz.diff_vector(pair), fld)
        return KoszulElement(self.quot, out)

    def is_cycle(self) -> bool:
        return self.differential().is_zero()

    def to_text(self) -> list:
        """[[indices, polynomial], ...] grouped by wedge factor, sorted."""
        from .parsing import poly_str
        groups = {}
        for (S, m), c in self.terms.items():
            groups.setdefault(S, {})[m] = c
        out = []
        for S in sorted(groups):
            poly = self.quot.ring.from_terms(groups[S])
            out.append([list(S), poly_str(poly, None)])
        return out

    def __repr__(self) -> str:
        if self.is_zero():
            return "<K 0>"
        bits = []
        for S, txt in self.to_text():
            tag = "e[%s]" % ",".join(str(s + 1) for s in S) if S else "1"
            bits.append("(%s)%s" % (txt, tag))
        return "<K %s>" % " + ".join(bits)


@dataclass
class HomologyClass:
    rep: KoszulElement  # a cycle
    hom_degree: int
    key: object  # internal degree (int) or multidegree (tuple)

    def __post_init__(self):
        if not self.rep.is_cycle():
            raise InputError("homology class representative is not a cycle")


# strand basis columns one complex may build before CapExceededError
STRAND_BUDGET = 2_000_000


class KoszulComplex:
    """Strand-by-strand homology of K otimes A for a quotient ring A; the
    pipeline uses A's own, `A.koszul()`, so each strand is built once.

    A strand key is a multidegree (tuple) when `multigraded`, which holds
    exactly for monomial quotients, and an internal degree (int) otherwise.
    """

    def __init__(self, quot):
        self.quot = quot
        self.field = quot.ring.field
        self.n = quot.ring.nvars
        self.multigraded = quot.is_monomial
        self._spent = 0
        self._strands = {}

    def _charge(self, amount: int):
        self._spent += amount
        if self._spent > STRAND_BUDGET:
            raise CapExceededError(
                "Koszul strand budget exhausted (%d columns)" % self._spent
            )

    def grade(self, S, m):
        """Strand key of the pair (S, m): its multidegree or internal degree."""
        return multidegree(S, m) if self.multigraded else mono_deg(m) + len(S)

    # strand records

    def strand(self, i: int, key):
        """The strand record (basis, columns): the pairs (S, m) with |S| = i
        and grade(S, m) = key, m standard, and their differentials, built
        together on the first visit and kept for the complex."""
        if (i, key) not in self._strands:
            basis = []
            if 0 <= i <= self.n:
                if self.multigraded:
                    supp = [l for l in range(self.n) if key[l] >= 1]
                    for S in itertools.combinations(supp, i):
                        m = list(key)
                        for s in S:
                            m[s] -= 1
                        m = tuple(m)
                        if not self.quot.contains_mono(m):
                            basis.append((S, m))
                elif key >= i:
                    monos = self.quot.std_monomials(key - i)
                    basis = [
                        (S, m)
                        for S in itertools.combinations(range(self.n), i)
                        for m in monos
                    ]
            self._charge(len(basis))
            self._strands[(i, key)] = (basis, [self.diff_vector(p) for p in basis])
        return self._strands[(i, key)]

    def diff_vector(self, pair: Pair) -> dict:
        S, m = pair
        fld = self.field
        out = {}
        for pos, l in enumerate(S):
            c = fld.one if pos % 2 == 0 else fld.neg(fld.one)
            rest = S[:pos] + S[pos + 1:]
            axpy(out, c, {(rest, m2): c2 for m2, c2 in self.quot.mult_var(l, m).items()}, fld)
        return out

    def homology(self, i: int, key) -> list:
        """Cycles whose classes form a basis of H_i on the strand."""
        basis, columns = self.strand(i, key)
        combos = kernel_basis(columns, self.field)
        elim = Eliminator(self.field)
        for col in self.strand(i + 1, key)[1]:
            elim.insert(col)
        reps = []
        for combo in combos:
            cyc = {basis[idx]: c for idx, c in combo.items()}
            if elim.insert(cyc) is None:
                reps.append(KoszulElement(self.quot, cyc))
        return reps

    def betti_entry(self, i: int, key) -> int:
        """dim H_i on the strand, by rank counting only (no representatives)."""
        here = self.strand(i, key)[1]
        if not here:
            return 0
        r_here = rank_of(here, self.field)
        r_up = rank_of(self.strand(i + 1, key)[1], self.field)
        return len(here) - r_here - r_up

    def boundary_preimage(self, z: KoszulElement) -> Optional[KoszulElement]:
        """Solve d(u) = z; None when z is not a boundary.

        z must be homologically homogeneous.  The solve is split along
        strands, so only small strands are ever materialized.
        """
        if z.is_zero():
            return KoszulElement.zero(self.quot)
        i = z.hom_degree()
        pieces = {}
        for (S, m), c in z.terms.items():
            pieces.setdefault(self.grade(S, m), {})[(S, m)] = c
        total = {}
        for k in sorted(pieces):
            basis, columns = self.strand(i + 1, k)
            combo = solve_columns(columns, pieces[k], self.field)
            if combo is None:
                return None
            axpy(total, 1, {basis[idx]: c for idx, c in combo.items()}, self.field)
        u = KoszulElement(self.quot, total)
        if (u.differential() - z).terms:
            raise InconsistencyError("boundary preimage verification failed")
        return u

    # homology bases over all strands

    def homology_basis(self) -> list:
        """HomologyClass list across all nonvanishing strands of H_{>=1}.

        The strands are the support of the quotient's Betti table, visited
        in (deg alpha, alpha, i) order when multigraded and in (i, j) order
        otherwise; each strand's dimension must match its table entry, and
        a multigraded table must sum to its (i, j) entries, which checks
        the entries koszul_betti copies from R/in(I)'s table too.
        """
        B = quotient_betti(self.quot)
        if self.multigraded:
            table = B.multigraded
            # a strand the multigraded table omits would go unvisited
            sums = {}
            for (i, alpha), b in table.items():
                key = (i, mono_deg(alpha))
                sums[key] = sums.get(key, 0) + b
            for key in sorted(sums.keys() | B.entries.keys()):
                if sums.get(key, 0) != B.entries.get(key, 0):
                    raise InconsistencyError(
                        "the multigraded Betti table sums to %d at %r, the table says %d"
                        % (sums.get(key, 0), key, B.entries.get(key, 0))
                    )
            strands = sorted(
                (s for s in table if s[0] >= 1), key=lambda s: (mono_deg(s[1]), s[1], s[0])
            )
        else:
            table = B.entries
            strands = sorted(s for s in table if s[0] >= 1)
        out = []
        for i, key in strands:
            reps = self.homology(i, key)
            if len(reps) != table[(i, key)]:
                raise InconsistencyError(
                    "H_%d on strand %r has dimension %d, the Betti table says %d"
                    % (i, key, len(reps), table[(i, key)])
                )
            out.extend(HomologyClass(rep, i, key) for rep in reps)
        return out

    def class_of(self, z: KoszulElement) -> HomologyClass:
        i = z.hom_degree()
        keys = {self.grade(S, m) for S, m in z.terms}
        if len(keys) != 1:
            raise InputError("representative spans several strands")
        return HomologyClass(z, i, keys.pop())


def quotient_betti(quot) -> BettiTable:
    """Betti table of A = R/I over R: the one place an engine is chosen.

    A monomial quotient is tabulated by taylor_betti from its minimal
    generators; every other quotient by koszul_betti.  The table is kept on
    the quotient; the engines keep nothing.
    """
    if quot._betti is None:
        if quot.is_monomial:
            quot._betti = taylor_betti(quot.gb.initial_ideal())
        else:
            quot._betti = koszul_betti(quot)
    return quot._betti


def koszul_betti(quot) -> BettiTable:
    """Betti table of a quotient A = R/I that is not monomial.  It is
    R/in(I)'s after consecutive cancellations, each lowering beta_{i,j} and
    beta_{i+1,j} together (Peeva, Proc. AMS 132, 2004), so an entry of
    R/in(I)'s table with no nonzero beta_{i-1,j} or beta_{i+1,j} is R/I's;
    only the others are read off strand homology of A's own complex."""
    if quot.is_monomial:
        raise InputError("koszul_betti takes a quotient that is not monomial")
    kz = quot.koszul()
    init = quotient_betti(quot.gb.initial_quotient()).entries
    entries = {(0, 0): 1}
    for (i, j), b in sorted(init.items()):
        if i >= 1:
            cancels = init.get((i - 1, j)) or init.get((i + 1, j))
            entries[(i, j)] = kz.betti_entry(i, j) if cancels else b
    return BettiTable(entries)
