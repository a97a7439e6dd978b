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
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .betti import BettiTable
from .errors import CapExceededError, InconsistencyError, InputError
from .linalg import Eliminator, axpy, kernel_basis, solve_columns
from .rings import mono_deg, mono_lcm
from .taylor import TAYLOR_MAX_GENS, taylor_betti

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
    def from_poly(cls, quot, poly, S=()) -> "KoszulElement":
        S = tuple(sorted(S))
        if len(set(S)) != len(S):
            return cls.zero(quot)
        nf = quot.nf(poly)
        return cls(quot, {(S, m): c for m, c in nf.terms.items()})

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

    def scale(self, c) -> "KoszulElement":
        fld = self.quot.field
        if c == fld.zero:
            return KoszulElement.zero(self.quot)
        return KoszulElement(self.quot, {k: fld.mul(c, v) for k, v in self.terms.items()})

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

    def internal_degrees(self) -> set:
        return {mono_deg(m) + len(S) for S, m in self.terms}

    def multidegrees(self) -> set:
        return {multidegree(S, m) for S, m in self.terms}

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
        quot, fld = self.quot, self.quot.field
        out = {}
        for (S, m), c in self.terms.items():
            for pos, l in enumerate(S):
                cc = c if pos % 2 == 0 else fld.neg(c)
                rest = S[:pos] + S[pos + 1:]
                axpy(out, cc, {(rest, m2): c2 for m2, c2 in quot.mult_var(l, m).items()}, fld)
        return KoszulElement(quot, out)

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

    @classmethod
    def from_text(cls, quot, data) -> "KoszulElement":
        from .parsing import parse_poly
        acc = cls.zero(quot)
        for S, txt in data:
            acc = acc + cls.from_poly(quot, parse_poly(txt, quot.ring), tuple(S))
        return acc

    def __repr__(self) -> str:
        if self.is_zero():
            return "<K 0>"
        bits = []
        for S, txt in self.to_text():
            tag = "e[%s]" % ",".join(str(s + 1) for s in S) if S else "1"
            bits.append("(%s)%s" % (txt, tag))
        return "<K %s>" % " + ".join(bits)


@dataclass
class HomologyStrand:
    hom_degree: int
    key: object  # internal degree (int) or multidegree (tuple)
    basis: list  # C_i strand basis pairs
    reps: list  # KoszulElement homology representatives
    dim: int


@dataclass
class HomologyClass:
    rep: KoszulElement  # a cycle
    hom_degree: int
    key: object  # internal degree (int) or multidegree (tuple)
    label: object = None  # rainbow color-block data when applicable

    def __post_init__(self):
        if not self.rep.is_cycle():
            raise InputError("homology class representative is not a cycle")


# strand basis columns one complex may build before CapExceededError
STRAND_BUDGET = 2_000_000


class KoszulComplex:
    """Strand-by-strand homology of K otimes A for a quotient ring A; the
    pipeline uses A's own, `A.koszul()`, so each strand is built once."""

    def __init__(self, quot):
        self.quot = quot
        self.ring = quot.ring
        self.field = quot.ring.field
        self.n = quot.ring.nvars
        self._spent = 0
        self._strands = {}
        self._homology = {}

    def _charge(self, amount: int):
        self._spent += amount
        if self._spent > STRAND_BUDGET:
            raise CapExceededError(
                "Koszul strand budget exhausted (%d columns)" % self._spent
            )

    # strand bases

    def strand_basis(self, i: int, j: int) -> list:
        key = ("z", i, j)
        if key not in self._strands:
            if i < 0 or i > self.n or j < i:
                self._strands[key] = []
            else:
                monos = self.quot.std_monomials(j - i)
                basis = [
                    (S, m)
                    for S in itertools.combinations(range(self.n), i)
                    for m in monos
                ]
                self._charge(len(basis))
                self._strands[key] = basis
        return self._strands[key]

    def strand_basis_multi(self, i: int, alpha: tuple) -> list:
        key = ("m", i, alpha)
        if key not in self._strands:
            if i < 0 or i > self.n:
                self._strands[key] = []
            else:
                supp = [l for l in range(self.n) if alpha[l] >= 1]
                basis = []
                for S in itertools.combinations(supp, i):
                    m = list(alpha)
                    for s in S:
                        m[s] -= 1
                    m = tuple(m)
                    if not self.quot.contains_mono(m):
                        basis.append((S, m))
                self._charge(len(basis))
                self._strands[key] = basis
        return self._strands[key]

    def _basis_for(self, i, key, multi: bool) -> list:
        return self.strand_basis_multi(i, key) if multi else self.strand_basis(i, key)

    def diff_vector(self, pair: Pair) -> dict:
        S, m = pair
        fld = self.field
        out = {}
        for pos, l in enumerate(S):
            c = fld.one if pos % 2 == 0 else fld.neg(fld.one)
            rest = S[:pos] + S[pos + 1:]
            axpy(out, c, {(rest, m2): c2 for m2, c2 in self.quot.mult_var(l, m).items()}, fld)
        return out

    def diff_rank(self, basis: list) -> int:
        elim = Eliminator(self.field)
        for pair in basis:
            elim.insert(self.diff_vector(pair))
        return elim.rank

    def homology(self, i: int, key, multi: bool = False) -> HomologyStrand:
        hkey = ("m" if multi else "z", i, key)
        if hkey in self._homology:
            return self._homology[hkey]
        basis = self._basis_for(i, key, multi)
        cols = [self.diff_vector(p) for p in basis]
        combos = kernel_basis(cols, self.field)
        cycles = [
            {basis[idx]: c for idx, c in combo.items()} for combo in combos
        ]
        elim = Eliminator(self.field)
        up = self._basis_for(i + 1, key, multi)
        for pair in up:
            elim.insert(self.diff_vector(pair))
        reps = []
        for cyc in cycles:
            if elim.insert(cyc) is None:
                reps.append(KoszulElement(self.quot, cyc))
        strand = HomologyStrand(i, key, basis, reps, len(reps))
        self._homology[hkey] = strand
        return strand

    def betti_entry(self, i: int, key, multi: bool = False) -> int:
        """dim H_i on the strand, by rank counting only (no representatives)."""
        if ("m" if multi else "z", i, key) in self._homology:
            return self._homology[("m" if multi else "z", i, key)].dim
        here = self._basis_for(i, key, multi)
        if not here:
            return 0
        r_here = self.diff_rank(here)
        r_up = self.diff_rank(self._basis_for(i + 1, key, multi))
        return len(here) - r_here - r_up

    def boundary_preimage(self, z: KoszulElement) -> Optional[KoszulElement]:
        """Solve d(u) = z; None when z is not a boundary.

        z must be homologically homogeneous.  The solve is split along
        internal degrees (or multidegrees, when A is monomial), so only
        small strands are ever materialized.
        """
        if z.is_zero():
            return KoszulElement.zero(self.quot)
        i = z.hom_degree()
        multi = self.quot.is_monomial
        pieces = {}
        for (S, m), c in z.terms.items():
            k = multidegree(S, m) if multi else mono_deg(m) + len(S)
            pieces.setdefault(k, {})[(S, m)] = c
        total = {}
        for k in sorted(pieces):
            vec = pieces[k]
            basis = self._basis_for(i + 1, k, multi)
            cols = [self.diff_vector(p) for p in basis]
            combo = solve_columns(cols, range(len(cols)), vec, self.field)
            if combo is None:
                return None
            axpy(total, 1, {basis[idx]: c for idx, c in combo.items()}, self.field)
        u = KoszulElement(self.quot, total)
        if (u.differential() - z).terms:
            raise InconsistencyError("boundary preimage verification failed")
        return u

    def is_boundary(self, z: KoszulElement) -> bool:
        return self.boundary_preimage(z) is not None

    # homology bases over all strands

    def lcm_lattice(self) -> list:
        """All joins of the minimal monomial generators, plus the origin.

        Tor of a monomial quotient is supported on these multidegrees
        (visible from the Taylor resolution), so nothing else is scanned.
        """
        if not self.quot.is_monomial:
            raise InputError("lcm lattice requires a monomial quotient")
        gens = list(self.quot.gb.lts)
        seen = set(gens)
        frontier = list(gens)
        while frontier:
            nxt = []
            for a in frontier:
                for g in gens:
                    j = mono_lcm(a, g)
                    if j not in seen:
                        seen.add(j)
                        nxt.append(j)
            frontier = nxt
        zero = tuple([0] * self.n)
        return [zero] + sorted(seen, key=lambda m: (mono_deg(m), m))

    def homology_basis(self, max_hom: Optional[int] = None) -> list:
        """HomologyClass list across all nonvanishing strands of H_{>=1}.

        Monomial quotients iterate multidegrees of the lcm lattice; general
        graded quotients iterate the internal degrees in the support of the
        Betti table of R/in(I) (upper-semicontinuity of Betti numbers).
        """
        top = self.n if max_hom is None else min(max_hom, self.n)
        out = []
        if self.quot.is_monomial:
            for alpha in self.lcm_lattice():
                if mono_deg(alpha) == 0:
                    continue
                supp = sum(1 for e in alpha if e >= 1)
                for i in range(1, min(top, supp) + 1):
                    strand = self.homology(i, alpha, multi=True)
                    out.extend(HomologyClass(rep, i, alpha) for rep in strand.reps)
        else:
            for g in self.quot.gb.gens:
                if not g.is_homogeneous():
                    raise InputError(
                        "homology basis of a non-monomial quotient needs a homogeneous ideal"
                    )
            for (i, j) in quotient_betti(self.quot.gb.initial_quotient()).support():
                if i == 0 or i > top:
                    continue
                strand = self.homology(i, j, multi=False)
                out.extend(HomologyClass(rep, i, j) for rep in strand.reps)
        return out

    def class_of(self, z: KoszulElement, label=None) -> HomologyClass:
        i = z.hom_degree()
        if self.quot.is_monomial:
            keys = z.multidegrees()
        else:
            keys = z.internal_degrees()
        if len(keys) != 1:
            raise InputError("representative spans several strands")
        return HomologyClass(z, i, keys.pop(), label=label)


def quotient_betti(quot) -> BettiTable:
    """Betti table of A = R/I over R: the one place an engine is chosen.

    A monomial quotient whose minimal generators fit under the Taylor cap
    uses taylor_betti, which is the faster engine there; every other
    quotient uses koszul_betti, the only engine that runs above the cap.
    The table is kept on the quotient; the engines keep nothing.
    """
    if quot._betti is None:
        I = quot.gb.initial_ideal()
        if quot.is_monomial and len(I.gens) <= TAYLOR_MAX_GENS:
            quot._betti = taylor_betti(I)
        else:
            quot._betti = koszul_betti(quot)
    return quot._betti


def koszul_betti(quot) -> BettiTable:
    """Betti table of A = R/I over R, read off from Koszul strand homology
    on A's own complex, so strands already built for A are reused.

    A monomial quotient scans the multidegrees of its lcm lattice; any other
    graded quotient scans the support of the table of R/in(I), which
    contains the support of R/I's table by upper-semicontinuity of Betti
    numbers."""
    kz = quot.koszul()
    entries = {(0, 0): 1}
    multigraded = {}
    if quot.is_monomial:
        multigraded[(0, tuple([0] * kz.n))] = 1
        for alpha in kz.lcm_lattice():
            j = mono_deg(alpha)
            if j == 0:
                continue
            supp = sum(1 for e in alpha if e >= 1)
            for i in range(1, supp + 1):
                b = kz.betti_entry(i, alpha, multi=True)
                if b:
                    entries[(i, j)] = entries.get((i, j), 0) + b
                    multigraded[(i, alpha)] = b
        return BettiTable(entries, multigraded=multigraded)
    for g in quot.gb.gens:
        if not g.is_homogeneous():
            raise InputError("koszul_betti needs a homogeneous ideal")
    for (i, j) in quotient_betti(quot.gb.initial_quotient()).support():
        if i == 0:
            continue
        b = kz.betti_entry(i, j, multi=False)
        if b:
            entries[(i, j)] = b
    return BettiTable(entries)
