"""Koszul complex over a quotient: differential laws, strand homology."""

import itertools
import random
from functools import reduce

import pytest
from hypothesis import example, given, settings, strategies as st

from golodlab import (
    GF,
    QQ,
    BettiTable,
    FiberInvariantResult,
    GroebnerBasis,
    KoszulComplex,
    KoszulElement,
    MonomialIdeal,
    PolyRing,
    QuotientRing,
    fiber_invariant,
    grevlex,
    koszul_betti,
    parse_poly,
    quotient_betti,
    taylor_betti,
)

from golodlab.errors import CapExceededError, InconsistencyError, InputError
from golodlab.monomial import lcm_lattice
from golodlab.rings import mono_deg, mono_lcm, monomials_of_degree

from conftest import (
    koszul_oracle,
    mk_ring,
    random_homogeneous_ideal,
    random_monomial_ideal,
    seeded,
    small_ideals,
)


def quotient_of(I):
    gb = GroebnerBasis(I.ring, grevlex(I.ring), I.polys())
    return QuotientRing(gb)


@pytest.fixture(scope="module")
def quot_m2():
    ring = mk_ring(2, ("x", "y"))
    return quotient_of(MonomialIdeal.from_monos(ring, [(2, 0), (1, 1), (0, 2)]))


def random_element(rng, quot, max_deg=3, size=None):
    """Homologically homogeneous element with random standard-monomial coefficients."""
    n = quot.ring.nvars
    if size is None:
        size = rng.randint(0, n)
    terms = {}
    for _ in range(rng.randint(1, 4)):
        S = tuple(sorted(rng.sample(range(n), size)))
        d = rng.randint(0, max_deg)
        pool = quot.std_monomials(d)
        if not pool:
            continue
        m = rng.choice(pool)
        key = (S, m)
        c = quot.field.of(rng.choice([-2, -1, 1, 2]))
        terms[key] = quot.field.add(terms.get(key, quot.field.zero), c)
    return KoszulElement(quot, terms)


def random_mixed_element(rng, quot, max_deg=3):
    a = random_element(rng, quot, max_deg)
    b = random_element(rng, quot, max_deg)
    return a + b


def test_differential_squares_to_zero():
    rng = random.Random(83)
    for _ in range(6):
        I = random_monomial_ideal(rng, 3, 3, max_gens=4)
        quot = quotient_of(I)
        for _ in range(5):
            z = random_mixed_element(rng, quot)
            assert z.differential().differential().is_zero()


def test_leibniz_rule():
    # d(a ^ b) = da ^ b + (-1)^{|a|} a ^ db for homogeneous wedge degree
    rng = random.Random(89)
    ring = mk_ring(3)
    I = MonomialIdeal.from_monos(ring, [(2, 0, 0), (0, 2, 0), (0, 1, 1)])
    quot = quotient_of(I)
    for _ in range(12):
        a = random_element(rng, quot)
        b = random_element(rng, quot)
        pa = a.hom_degree()
        if pa is None:
            continue
        lhs = a.wedge(b).differential()
        second = a.wedge(b.differential())
        rhs = a.differential().wedge(b) + (second if pa % 2 == 0 else second.neg())
        assert lhs == rhs


def test_wedge_is_graded_commutative():
    rng = random.Random(97)
    ring = mk_ring(3)
    I = MonomialIdeal.from_monos(ring, [(2, 0, 0), (0, 2, 0)])
    quot = quotient_of(I)
    for _ in range(10):
        a = random_element(rng, quot)
        b = random_element(rng, quot)
        pa, pb = a.hom_degree(), b.hom_degree()
        if pa is None or pb is None:
            continue
        swapped = b.wedge(a)
        assert a.wedge(b) == (swapped if (pa * pb) % 2 == 0 else swapped.neg())
    # e_i ^ e_i = 0
    e0 = KoszulElement.wedge_monomial(quot, (0,))
    assert e0.wedge(e0).is_zero()


def test_koszul_betti_on_m2(quot_m2):
    """The lcm-lattice oracle tabulates a monomial quotient, which the
    production Koszul engine refuses: taylor_betti tabulates those."""
    B = koszul_oracle(quot_m2)
    assert B.entries == {(0, 0): 1, (1, 2): 3, (2, 3): 2}
    with pytest.raises(InputError, match="not monomial"):
        koszul_betti(quot_m2)


def test_strand_homology_dimensions(quot_m2):
    """R/(x^2, xy, y^2) is multigraded: one generator in each degree-2
    multidegree, one syzygy in each of (2, 1) and (1, 2)."""
    kz = KoszulComplex(quot_m2)
    assert kz.multigraded
    for alpha in ((2, 0), (1, 1), (0, 2)):
        assert kz.betti_entry(1, alpha) == 1
    assert kz.betti_entry(2, (2, 1)) == 1
    assert kz.betti_entry(2, (1, 2)) == 1
    assert kz.betti_entry(1, (1, 0)) == 0
    assert kz.betti_entry(2, (1, 1)) == 0
    assert kz.betti_entry(1, (2, 1)) == 0
    reps = kz.homology(1, (1, 1))
    assert len(reps) == 1
    assert kz.betti_entry(1, (1, 1)) == 1
    assert kz.class_of(reps[0]).key == (1, 1)
    for z in reps:
        assert z.is_cycle()
        assert kz.boundary_preimage(z) is None


def test_homology_basis_spans_all_strands(quot_m2):
    basis = quot_m2 and KoszulComplex(quot_m2).homology_basis()
    by_deg = {}
    for h in basis:
        by_deg[h.hom_degree] = by_deg.get(h.hom_degree, 0) + 1
    assert by_deg == {1: 3, 2: 2}


def test_boundary_preimage_inverts_differential(quot_m2):
    kz = KoszulComplex(quot_m2)
    rng = random.Random(101)
    for _ in range(8):
        z = random_element(rng, quot_m2)
        b = z.differential()
        if b.is_zero():
            continue
        pre = kz.boundary_preimage(b)
        assert pre is not None
        assert pre.differential() == b


def test_koszul_matches_taylor_on_corpus():
    rng = random.Random(103)
    for _ in range(8):
        I = random_monomial_ideal(rng, 4, 3, max_gens=5)
        quot = quotient_of(I)
        assert koszul_oracle(quot).entries == taylor_betti(I).entries


def _subset_lcms(gens):
    """The lcm of every nonempty subset of gens, in (degree, exponents) order."""
    joins = {
        reduce(mono_lcm, sub)
        for r in range(1, len(gens) + 1)
        for sub in itertools.combinations(gens, r)
    }
    return sorted(joins, key=lambda m: (mono_deg(m), m))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 9), nvars=st.integers(2, 6))
def test_lcm_lattice_is_every_subset_lcm(seed, nvars):
    I = random_monomial_ideal(seeded(seed), nvars, 4, max_gens=8)
    assert lcm_lattice(I.gens) == _subset_lcms(list(I.gens))


def test_lcm_lattice_of_eight_generators():
    """x_i^2 and the 4-cycle x1x2, x2x3, x3x4, x1x4: 255 subsets."""
    ring = mk_ring(4)
    monos = [tuple(2 * (v == i) for v in range(4)) for i in range(4)]
    monos += [tuple(int(v in (i, (i + 1) % 4)) for v in range(4)) for i in range(4)]
    I = MonomialIdeal.from_monos(ring, monos)
    assert len(I.gens) == 8
    lattice = lcm_lattice(I.gens)
    assert lattice == _subset_lcms(list(I.gens))
    assert lcm_lattice(I.gens, len(lattice)) == lattice
    with pytest.raises(CapExceededError):
        lcm_lattice(I.gens, len(lattice) - 1)


def test_koszul_betti_non_monomial(gorenstein_gb):
    from golodlab import QuotientRing

    B = koszul_betti(QuotientRing(gorenstein_gb))
    # Gorenstein of codimension 3: symmetric Betti totals 1, 5, 5, 1
    totals = {}
    for (i, _), b in B.entries.items():
        totals[i] = totals.get(i, 0) + b
    assert totals == {0: 1, 1: 5, 2: 5, 3: 1}


def _counted_betti_entries(monkeypatch):
    calls = []
    betti_entry = KoszulComplex.betti_entry

    def counted(self, i, key):
        calls.append((i, key))
        return betti_entry(self, i, key)

    monkeypatch.setattr(KoszulComplex, "betti_entry", counted)
    return calls


def _no_consecutive_pair():
    """6*p*h*y - 9*p^2*y, -12*h*y - 8*p*y, with in(I) = (h^2*y, p*y)."""
    ring = PolyRing(("p", "h", "y"), QQ)
    gens = [parse_poly(t, ring) for t in ("6*p*h*y - 9*p^2*y", "-12*h*y - 8*p*y")]
    return GroebnerBasis(ring, grevlex(ring), gens)


def test_an_entry_no_cancellation_reaches_builds_no_strand(monkeypatch):
    """in(I) = (h^2*y, p*y) has Betti entries (1, 2), (1, 3) and (2, 4): not
    linear, and no two in one internal degree at consecutive homological
    degrees, so no consecutive cancellation can occur.  R/I's table is
    in(I)'s, read with no Koszul strand, and fiber invariance follows from
    the entrywise comparison; homology_basis then checks every entry."""
    calls = _counted_betti_entries(monkeypatch)
    gb = _no_consecutive_pair()
    want = {(0, 0): 1, (1, 2): 1, (1, 3): 1, (2, 4): 1}
    assert quotient_betti(gb.initial_quotient()).entries == want
    assert fiber_invariant(gb) == FiberInvariantResult(True)
    assert quotient_betti(gb.quotient()).entries == want
    assert calls == []
    assert len(gb.quotient().koszul().homology_basis()) == 3


def test_an_entry_taken_from_the_initial_table_is_checked():
    """The entries koszul_betti copies from R/in(I) are checked against
    computed homology: a wrong copy fails homology_basis."""
    gb = _no_consecutive_pair()
    init = gb.initial_quotient()
    init._betti = BettiTable({**quotient_betti(init).entries, (1, 3): 2})
    with pytest.raises(InconsistencyError, match="H_1 on strand 3 has dimension 1, the Betti table says 2"):
        gb.quotient().koszul().homology_basis()


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=["QQ", "F2", "F3"])
def test_koszul_betti_matches_every_strand(field, monkeypatch):
    """koszul_betti equals the table read off every strand of the support of
    R/in(I)'s table; over the sample some entries are copied and some are
    computed."""
    calls = _counted_betti_entries(monkeypatch)
    rng = seeded(2705)
    copied = computed = 0
    for _ in range(40):
        ring = PolyRing(tuple("xyzw"[: rng.randint(3, 4)]), field)
        gens = random_homogeneous_ideal(rng, ring, max_deg=3, n_gens=rng.randint(2, 4))
        gb = GroebnerBasis(ring, grevlex(ring), gens)
        if gb.is_monomial or not all(any(m) for m in gb.lts):
            continue
        quot = gb.quotient()
        support = [(i, j) for i, j in quotient_betti(gb.initial_quotient()).support() if i]
        calls.clear()
        B = koszul_betti(quot)
        copied += len(support) - len(calls)
        computed += len(calls)
        kz = KoszulComplex(quot)
        assert B == BettiTable({(0, 0): 1, **{s: kz.betti_entry(*s) for s in support}})
    assert copied and computed


def test_homology_basis_with_a_twenty_generator_initial_ideal():
    """in(I) has 20 minimal generators, and its table bounds the strands
    that the non-monomial homology basis visits."""
    ring = mk_ring(3, ("x", "y", "z"))
    gens = [parse_poly("x*y-z^2", ring)] + [ring.monomial(m) for m in monomials_of_degree(3, 9)]
    quot = QuotientRing(GroebnerBasis(ring, grevlex(ring), gens))
    assert len(quot.gb.initial_ideal().gens) == 20
    B = koszul_betti(quot)
    assert B.totals() == (1, 20, 36, 17)
    basis = KoszulComplex(quot).homology_basis()
    assert len(basis) == sum(B.totals()[1:]) == 73
    # (1, 9) precedes (2, 3): strands come in (i, j) order
    assert [(h.hom_degree, h.key, h.rep.terms) for h in basis] == oracle_classes(quot)


def test_cycle_check_guards_class_construction(quot_m2):
    from golodlab.errors import InputError
    from golodlab import HomologyClass

    e0 = KoszulElement.wedge_monomial(quot_m2, (0,))
    # d(e_0) = x in R/(x^2,xy,y^2), nonzero, so e_0 is not a cycle
    with pytest.raises(InputError):
        HomologyClass(e0, 1, 1)


def test_element_text_round_trip(quot_m2):
    rng = random.Random(107)
    for _ in range(6):
        z = random_element(rng, quot_m2, max_deg=1)
        back = KoszulElement(quot_m2, {
            (tuple(S), m): c
            for S, txt in z.to_text()
            for m, c in parse_poly(txt, quot_m2.ring).terms.items()
        })
        assert back == z


# ---------------------------------------------------------------------------
# the strand walk homology_basis made before it read the quotient's own
# Betti table, kept as an oracle: every multidegree of the lcm lattice with
# i up to its support size (monomial quotients), or the support of the table
# of R/in(I) (graded quotients), zero strands included


def oracle_strands(quot) -> list:
    if quot.is_monomial:
        gens = list(quot.gb.lts)
        seen = frontier = set(gens)
        while frontier:
            frontier = {mono_lcm(a, g) for a in frontier for g in gens} - seen
            seen = seen | frontier
        return [
            (i, alpha)
            for alpha in sorted(seen, key=lambda m: (mono_deg(m), m))
            for i in range(1, sum(1 for e in alpha if e >= 1) + 1)
        ]
    return [(i, j) for (i, j) in quotient_betti(quot.gb.initial_quotient()).support() if i]


def oracle_classes(quot) -> list:
    """(hom degree, key, rep terms) per class, on a complex of its own."""
    kz = KoszulComplex(quot)
    return [(i, key, rep.terms) for i, key in oracle_strands(quot) for rep in kz.homology(i, key)]


def _gorenstein_plus_quartic():
    """beta_{1,4} and beta_{2,3} are both nonzero, so (i, j) order and
    (j, i) order differ."""
    ring = mk_ring(4)
    gens = ("x1^2", "x1*x3", "-x1*x2+x3^2", "x2*x3", "x2^2", "x4^4")
    return ring, [parse_poly(g, ring) for g in gens]


@settings(max_examples=60, deadline=None)
@given(small_ideals())
@example(_gorenstein_plus_quartic())
def test_homology_basis_matches_the_superset_walk(ideal):
    ring, gens = ideal
    quot = GroebnerBasis(ring, grevlex(ring), gens).quotient()
    basis = quot.koszul().homology_basis()
    assert [(h.hom_degree, h.key, h.rep.terms) for h in basis] == oracle_classes(quot)


def _support(quot):
    B = quotient_betti(quot)
    table = B.multigraded if quot.koszul().multigraded else B.entries
    return sorted(s for s in table if s[0] >= 1)


def test_homology_runs_only_on_support_strands(quot_m2, gorenstein_gb, monkeypatch):
    calls = []
    homology = KoszulComplex.homology

    def counted(self, i, key):
        calls.append((i, key))
        return homology(self, i, key)

    monkeypatch.setattr(KoszulComplex, "homology", counted)
    for quot in (quot_m2, QuotientRing(gorenstein_gb)):
        calls.clear()
        quot.koszul().homology_basis()
        assert sorted(calls) == _support(quot)
        assert len(calls) < len(oracle_strands(quot))


def test_corrupted_betti_table_is_caught(quot_m2, gorenstein_gb):
    """The strand walk cross-checks every dimension against the table."""
    mono = quotient_of(quot_m2.gb.initial_ideal())
    B = quotient_betti(mono)
    for bad in ({(1, (1, 1)): 2}, {(1, (1, 0)): 1}):
        mono._betti = BettiTable(B.entries, multigraded={**B.multigraded, **bad})
        with pytest.raises(InconsistencyError, match="Betti table"):
            KoszulComplex(mono).homology_basis()
    graded = QuotientRing(gorenstein_gb)
    B = quotient_betti(graded)
    graded._betti = BettiTable({**B.entries, (2, 3): B.entries[(2, 3)] + 1})
    with pytest.raises(InconsistencyError, match="Betti table"):
        KoszulComplex(graded).homology_basis()


def test_strand_missing_from_the_multigraded_table_is_caught():
    """A multigraded table must sum to its (i, j) entries: a strand it omits
    would otherwise be skipped by the walk and lose its classes."""
    ring = mk_ring(2, ("x", "y"))
    quot = quotient_of(MonomialIdeal.from_monos(ring, [(2, 0), (1, 1), (0, 2)]))
    B = quotient_betti(quot)
    assert len(KoszulComplex(quot).homology_basis()) == 5
    multigraded = dict(B.multigraded)
    del multigraded[(2, (1, 2))]
    quot._betti = BettiTable(B.entries, multigraded=multigraded)
    with pytest.raises(InconsistencyError, match="sums to 1 at \\(2, 3\\), the table says 2"):
        KoszulComplex(quot).homology_basis()


def test_each_strand_is_built_once(gorenstein_gb, gorenstein_initial_quot, monkeypatch):
    """homology, betti_entry and boundary_preimage read one strand record: a
    second round on the same strand builds no differential column outside
    KoszulElement.differential, and solve_columns gets the very same column
    list.  Both the graded and a multigraded complex are checked."""
    import golodlab.koszul as koszul

    built, solved, in_differential = [], [], []
    diff_vector, differential = KoszulComplex.diff_vector, KoszulElement.differential
    solve_columns = koszul.solve_columns

    def counted_diff_vector(self, pair):
        if not in_differential:
            built.append(pair)
        return diff_vector(self, pair)

    def flagged_differential(self):
        in_differential.append(True)
        try:
            return differential(self)
        finally:
            in_differential.pop()

    def recorded_solve_columns(columns, b, field):
        solved.append(columns)
        return solve_columns(columns, b, field)

    monkeypatch.setattr(KoszulComplex, "diff_vector", counted_diff_vector)
    monkeypatch.setattr(KoszulElement, "differential", flagged_differential)
    monkeypatch.setattr(koszul, "solve_columns", recorded_solve_columns)
    for quot in (QuotientRing(gorenstein_gb), gorenstein_initial_quot):
        kz = KoszulComplex(quot)
        # d(e_1 ^ e_2) is a boundary on the strand of the first syzygy x1*x2
        z = KoszulElement.wedge_monomial(quot, (0, 1)).differential()
        key = kz.grade(*next(iter(z.terms)))
        rounds = []
        for _ in range(2):
            built.clear()
            solved.clear()
            result = (kz.homology(1, key), kz.betti_entry(1, key), kz.boundary_preimage(z))
            rounds.append((list(built), list(solved), result))
        (built1, solved1, first), (built2, solved2, second) = rounds
        assert built1 and not built2
        assert len(solved1) == len(solved2) == 1 and solved2[0] is solved1[0]
        assert first == second
        assert len(first[0]) == first[1] >= 1 and first[2].differential() == z
