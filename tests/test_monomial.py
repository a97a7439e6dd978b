"""Monomial ideals: minimal generators, powers, polarization, rainbow search."""

import random

import pytest

from golodlab import (
    MonomialIdeal,
    Polarization,
    RainbowStructure,
    detect_rainbow,
    parse_poly,
    polarize,
    validate_rainbow,
)
from golodlab.analyzer import recognize_monomial_power
from golodlab.monomial import display_sorted, minimalize
from golodlab.rings import mono_deg, mono_divides

from conftest import FIXTURES, koszul_oracle, mk_ring, random_monomial_ideal


def test_minimalize_drops_multiples():
    got = minimalize([(2, 0), (3, 0), (1, 1), (2, 1)])
    assert set(got) == {(2, 0), (1, 1)}


def test_from_monos_minimalizes_and_compares():
    ring = mk_ring(2, ("x", "y"))
    a = MonomialIdeal.from_monos(ring, [(2, 0), (3, 0), (1, 1)])
    b = MonomialIdeal.from_monos(ring, [(1, 1), (2, 0)])
    assert a == b
    assert any(mono_divides(g, (5, 1)) for g in a.gens)
    assert not any(mono_divides(g, (1, 0)) for g in a.gens)


def test_power_of_maximal_ideal():
    ring = mk_ring(2, ("x", "y"))
    m = MonomialIdeal.from_monos(ring, [(1, 0), (0, 1)])
    m2 = m.power(2)
    assert set(m2.gens) == {(2, 0), (1, 1), (0, 2)}
    m3 = m.power(3)
    assert set(m3.gens) == {(3, 0), (2, 1), (1, 2), (0, 3)}
    assert m.power(1) == m


def test_power_agrees_with_repeated_product():
    rng = random.Random(61)
    for _ in range(6):
        I = random_monomial_ideal(rng, 3, 3, max_gens=4)
        assert I.power(2) == I * I
        assert I.power(3) == I * I * I


def test_display_sorted_reads_degree_then_grevlex(ring3):
    monos = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 3)]
    rng = random.Random(3)
    shuffled = monos[:]
    rng.shuffle(shuffled)
    got = display_sorted(shuffled)
    assert [ring3.mono_str(m) for m in got] == [
        "x1^2", "x1*x2", "x2^2", "x1*x3", "x2*x3", "x3^3",
    ]


def test_polarize_three_quadrics():
    ring = mk_ring(2, ("x", "y"))
    I = MonomialIdeal.from_monos(ring, [(2, 0), (1, 1), (0, 2)])
    P = polarize(I)
    assert isinstance(P, Polarization)
    assert P.ideal.is_squarefree()
    assert P.ring.nvars == 4
    names = P.ring.names
    strs = sorted(P.ring.mono_str(g) for g in P.ideal.gens)
    assert strs == sorted(
        ["%s*%s" % (names[0], names[1]), "%s*%s" % (names[0], names[2]),
         "%s*%s" % (names[2], names[3])]
    )
    # depolarization specializes each polarized generator back onto a generator
    back = {P.depolarize(g) for g in P.ideal.gens}
    assert back == set(I.gens)
    # x and y each split into two copies
    assert P.owners == (0, 0, 1, 1)


def test_polarize_squarefree_is_itself():
    ring = mk_ring(3)
    I = MonomialIdeal.from_monos(ring, [(1, 1, 0), (0, 1, 1)])
    P = polarize(I)
    assert P.ring.nvars == 3
    assert set(P.ideal.gens) == set(I.gens)


def test_polarize_preserves_betti_numbers():
    # polarization is a deformation: Taylor-resolution Betti tables agree
    from golodlab import taylor_betti

    rng = random.Random(67)
    for _ in range(5):
        I = random_monomial_ideal(rng, 3, 3, max_gens=4)
        P = polarize(I)
        assert taylor_betti(I).entries == taylor_betti(P.ideal).entries


def test_polarization_check_of_a_twenty_generator_initial_ideal():
    """x*y - z^2 with the 55 degree-9 monomials: in(I) has 20 generators
    and polarizes into 27 variables.  The check tabulates R'/J from its
    strand complexes, and that table is the Koszul table of R/in(I)."""
    from golodlab import GroebnerBasis, grevlex, lex, quotient_betti
    from golodlab.analyzer import _check_polarization
    from golodlab.rings import monomials_of_degree

    ring = mk_ring(3, ("x", "y", "z"))
    gens = [parse_poly("x*y-z^2", ring)] + [ring.monomial(m) for m in monomials_of_degree(3, 9)]
    gb = GroebnerBasis(ring, grevlex(ring), gens)
    I = gb.initial_ideal()
    assert len(I.gens) == 20
    P = polarize(I)
    assert P.ring.nvars == 27
    pol_quot = GroebnerBasis(P.ring, lex(P.ring), P.ideal.polys()).quotient()
    _check_polarization(P, gb.initial_quotient(), pol_quot)
    B = quotient_betti(pol_quot)
    assert B == koszul_oracle(gb.initial_quotient())
    assert B.totals() == (1, 20, 36, 17)


def test_rainbow_on_generic_2x3_initial_ideal():
    # diagonal initial ideal of the maximal minors: rows are the colors
    from golodlab import GroebnerBasis, diagonal_order
    from golodlab.determinantal import LadderMatrix, maximal_minors

    X = LadderMatrix.generic(2, 3)
    gb = GroebnerBasis(X.ring, diagonal_order(X.ring, 2, 3), maximal_minors(X))
    in_I = gb.initial_ideal()
    res = detect_rainbow(in_I)
    assert res.status == "found"
    assert res.structure is not None
    assert validate_rainbow(in_I, res.structure)
    # the row partition is also a rainbow structure for this ideal
    assert validate_rainbow(in_I, RainbowStructure(X.ring, X.row_classes()))


def test_rainbow_rejects_mixed_degrees():
    ring = mk_ring(2, ("x", "y"))
    I = MonomialIdeal.from_monos(ring, [(1, 1), (3, 0)])
    res = detect_rainbow(I)
    assert res.status == "not_found"
    assert "equigenerated" in res.reason or "squarefree" in res.reason


def test_rainbow_honest_negative_on_obstructed_complex():
    # squarefree, equigenerated, but provably no rainbow coloring exists
    from golodlab import parse_ideal_text

    f = parse_ideal_text((FIXTURES / "reiner_welker.txt").read_text())
    I = MonomialIdeal.from_monos(f.ring, [m for g in f.gens for m in g.terms])
    P = polarize(I)
    assert P.ring.nvars == I.ring.nvars  # already squarefree
    res = detect_rainbow(P.ideal)
    assert res.status == "not_found"
    assert res.searched_colors == 4
    assert "no 4-class rainbow coloring" in res.reason


def test_validate_rainbow_checks_one_pick_per_class():
    ring = mk_ring(4, ("a1", "a2", "b1", "b2"))
    I = MonomialIdeal.from_monos(
        ring, [(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0)]
    )
    good = RainbowStructure(ring, ((0, 1), (2, 3)))
    assert validate_rainbow(I, good)
    bad = RainbowStructure(ring, ((0, 2), (1, 3)))
    assert not validate_rainbow(I, bad)


def test_recognize_monomial_power():
    ring = mk_ring(2, ("x", "y"))
    m2 = MonomialIdeal.from_monos(ring, [(2, 0), (1, 1), (0, 2)])
    hit = recognize_monomial_power(m2)
    assert hit is not None
    J, t = hit
    assert t == 2 and set(J.gens) == {(1, 0), (0, 1)}
    # maximal exponent is preferred: m^4 reports t = 4, not t = 2
    m4 = MonomialIdeal.from_monos(ring, [(1, 0), (0, 1)]).power(4)
    J4, t4 = recognize_monomial_power(m4)
    assert t4 == 4
    # not a proper power
    I = MonomialIdeal.from_monos(ring, [(2, 0), (0, 3)])
    assert recognize_monomial_power(I) is None
