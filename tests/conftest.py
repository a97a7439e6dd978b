"""Shared fixtures: the worked three-variable example, corpus generators."""

import itertools
import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

from golodlab import (
    QQ,
    BettiTable,
    GroebnerBasis,
    MonomialIdeal,
    PolyRing,
    QuotientRing,
    lex,
    parse_poly,
)
from golodlab.linalg import rank_of
from golodlab.monomial import lcm_lattice
from golodlab.parsing import parse_ideal_text
from golodlab.rings import mono_deg, mono_lcm, monomials_of_degree

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def mk_ring(n, names=None):
    if names is None:
        names = tuple("x%d" % (i + 1) for i in range(n))
    return PolyRing(tuple(names), QQ)


@pytest.fixture(scope="session")
def ring3():
    return mk_ring(3)


@pytest.fixture(scope="session")
def gorenstein_gb(ring3):
    """The Gorenstein 3-fold point: five quadrics, lex x1>x2>x3."""
    gens = [
        parse_poly(s, ring3)
        for s in ("x1^2", "x1*x3", "-x1*x2+x3^2", "x2*x3", "x2^2")
    ]
    return GroebnerBasis(ring3, lex(ring3), gens)


@pytest.fixture(scope="session")
def gorenstein_initial_quot(gorenstein_gb):
    ring = gorenstein_gb.ring
    gb = GroebnerBasis(ring, gorenstein_gb.order, gorenstein_gb.initial_ideal().polys())
    return QuotientRing(gb)


def rp2_cubics(field):
    """The ring of fixtures/rp2.txt over field, and the exponent tuples of
    the fixture's 10 squarefree cubics: the Stanley-Reisner ideal of RP^2."""
    f = parse_ideal_text((FIXTURES / "rp2.txt").read_text())
    return PolyRing(f.ring.names, field), [next(iter(g.terms)) for g in f.gens]


def random_monomial(rng, ring, max_deg):
    """Exponent tuple of a monomial of degree in [1, max_deg]."""
    m = [0] * ring.nvars
    for _ in range(rng.randint(1, max_deg)):
        m[rng.randrange(ring.nvars)] += 1
    return tuple(m)


def random_monomial_ideal(rng, nvars, max_deg, max_gens=6):
    """Nonzero monomial ideal with minimal generators, degrees in [1, max_deg]."""
    ring = mk_ring(nvars)
    monos = {random_monomial(rng, ring, max_deg) for _ in range(rng.randint(1, max_gens))}
    return MonomialIdeal.from_monos(ring, monos)


def taylor_oracle(I):
    """Betti table of R/I from every one of the 2^r subsets of the r
    generators: the Taylor complex split into its lcm strands, each strand's
    homology by rank counting."""
    gens = I.gens
    r = len(gens)
    F = I.ring.field
    lcm = [I.ring.zero_mono()] * (1 << r)
    for mask in range(1, 1 << r):
        low = mask & -mask
        lcm[mask] = mono_lcm(lcm[mask ^ low], gens[low.bit_length() - 1])
    strata = {}
    for mask in range(1 << r):
        strata.setdefault(lcm[mask], []).append(mask)
    entries, multigraded = {}, {}
    for alpha, masks in strata.items():
        members = set(masks)
        by_card = {}
        for m in masks:
            by_card.setdefault(bin(m).count("1"), []).append(m)
        # ranks[i]: rank of the strand differential leaving degree i
        ranks = {}
        for i in by_card:
            cols = []
            for mask in by_card[i]:
                bits = [b for b in range(r) if mask >> b & 1]
                col = {
                    mask ^ (1 << b): F.one if pos % 2 == 0 else F.neg(F.one)
                    for pos, b in enumerate(bits)
                    if mask ^ (1 << b) in members
                }
                if col:
                    cols.append(col)
            ranks[i] = rank_of(cols, F)
        for i in by_card:
            h = len(by_card[i]) - ranks[i] - ranks.get(i + 1, 0)
            if h:
                d = mono_deg(alpha)
                entries[(i, d)] = entries.get((i, d), 0) + h
                multigraded[(i, alpha)] = h
    return BettiTable(entries, multigraded)


def koszul_oracle(quot):
    """Betti table of a monomial quotient R/I from the Koszul strand of
    every multidegree of its lcm lattice, multidegrees included."""
    kz = quot.koszul()
    entries = {(0, 0): 1}
    multigraded = {(0, quot.ring.zero_mono()): 1}
    for alpha in lcm_lattice(quot.gb.lts):
        for i in range(1, sum(1 for e in alpha if e >= 1) + 1):
            b = kz.betti_entry(i, alpha)
            if b:
                j = mono_deg(alpha)
                entries[(i, j)] = entries.get((i, j), 0) + b
                multigraded[(i, alpha)] = b
    return BettiTable(entries, multigraded)


def valid_tuples_oracle(quot, labels, p):
    """The valid length-p tuples of labels, found by checking every one of
    the |labels|^p tuples in itertools.product order: the labels share no
    variable, and every transversal of their blockwise union is a minimal
    generator of the ideal."""
    gens = set(quot.gb.lts)
    n = quot.ring.nvars
    variables = {lab: frozenset(v for block in lab for v in block) for lab in labels}

    def valid(lam):
        seen = frozenset()
        for lab in lam:
            if not seen.isdisjoint(variables[lab]):
                return False
            seen |= variables[lab]
        union = [[v for lab in lam for v in lab[c]] for c in range(len(lam[0]))]
        return all(
            tuple(int(v in choice) for v in range(n)) in gens
            for choice in itertools.product(*union)
        )

    return [lam for lam in itertools.product(labels, repeat=p) if valid(lam)]


def random_homogeneous_poly(rng, ring, deg, n_terms=3):
    pool = list(monomials_of_degree(ring.nvars, deg))
    rng.shuffle(pool)
    terms = {}
    for m in pool[: rng.randint(1, n_terms)]:
        c = rng.choice([-2, -1, 1, 2, 3])
        terms[m] = ring.field.of(c)
    return ring.from_terms(terms)


def random_homogeneous_ideal(rng, ring, max_deg=3, n_gens=3):
    gens = []
    for _ in range(n_gens):
        d = rng.randint(1, max_deg)
        f = random_homogeneous_poly(rng, ring, d)
        if not f.is_zero():
            gens.append(f)
    return gens


def seeded(seed):
    return random.Random(seed)


@st.composite
def small_ideals(draw):
    """A monomial or a graded ideal over QQ in 3 or 4 variables."""
    nvars = draw(st.integers(3, 4))
    ring = mk_ring(nvars)
    if draw(st.booleans()):
        mono = st.tuples(*[st.integers(0, 2)] * nvars).filter(lambda e: 2 <= sum(e) <= 3)
        monos = draw(st.lists(mono, min_size=1, max_size=7))
        return ring, MonomialIdeal.from_monos(ring, monos).polys()
    gens = []
    for _ in range(draw(st.integers(1, 5))):
        pool = list(monomials_of_degree(nvars, draw(st.integers(2, 3))))
        support = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
        gens.append(ring.from_terms({m: draw(st.sampled_from([-2, -1, 1, 3])) for m in support}))
    return ring, gens
