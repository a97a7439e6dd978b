"""Minimal Betti numbers from the Taylor complex, cross-checked two ways:
against the walk over every subset of the generators and against the
Koszul engine."""

import itertools
import random

import pytest

from golodlab import (
    GF,
    QQ,
    CapExceededError,
    GroebnerBasis,
    MonomialIdeal,
    PolyRing,
    QuotientRing,
    cli,
    grevlex,
    has_linear_resolution,
    quotient_betti,
    taylor,
    taylor_betti,
)
from golodlab.rings import monomials_of_degree

from conftest import (
    koszul_oracle,
    mk_ring,
    random_monomial_ideal,
    rp2_cubics,
    seeded,
    taylor_oracle,
)


def test_square_of_maximal_ideal_two_vars():
    ring = mk_ring(2, ("x", "y"))
    I = MonomialIdeal.from_monos(ring, [(2, 0), (1, 1), (0, 2)])
    B = taylor_betti(I)
    assert B.entries == {(0, 0): 1, (1, 2): 3, (2, 3): 2}
    assert has_linear_resolution(B)


def test_cube_of_maximal_ideal_two_vars():
    ring = mk_ring(2, ("x", "y"))
    I = MonomialIdeal.from_monos(ring, [(1, 0), (0, 1)]).power(3)
    B = taylor_betti(I)
    assert B.entries == {(0, 0): 1, (1, 3): 4, (2, 4): 3}
    assert has_linear_resolution(B)


def test_variables_give_koszul_binomials():
    ring = mk_ring(3)
    I = MonomialIdeal.from_monos(ring, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    B = taylor_betti(I)
    assert B.entries == {(0, 0): 1, (1, 1): 3, (2, 2): 3, (3, 3): 1}


def test_non_linear_example():
    # x^2, y^3: complete intersection, Koszul relation in degree 5
    ring = mk_ring(2, ("x", "y"))
    I = MonomialIdeal.from_monos(ring, [(2, 0), (0, 3)])
    B = taylor_betti(I)
    assert B.entries == {(0, 0): 1, (1, 2): 1, (1, 3): 1, (2, 5): 1}
    # mixed generator degrees: the resolution is not linear
    assert not has_linear_resolution(B)
    # equigenerated but with a non-linear syzygy
    ring2 = mk_ring(2, ("x", "y"))
    J = MonomialIdeal.from_monos(ring2, [(2, 0), (0, 2)])
    assert not has_linear_resolution(taylor_betti(J))


def test_multigraded_refines_graded():
    rng = random.Random(71)
    for _ in range(8):
        I = random_monomial_ideal(rng, 3, 3, max_gens=5)
        B = taylor_betti(I)
        assert B.multigraded is not None
        coarse = {}
        for (i, alpha), b in B.multigraded.items():
            key = (i, sum(alpha))
            coarse[key] = coarse.get(key, 0) + b
        assert coarse == B.entries


def test_taylor_agrees_with_koszul_homology():
    rng = random.Random(73)
    for _ in range(10):
        I = random_monomial_ideal(rng, 3, 3, max_gens=5)
        gb = GroebnerBasis(I.ring, grevlex(I.ring), I.polys())
        assert taylor_betti(I).entries == koszul_oracle(QuotientRing(gb)).entries


def test_projective_dimension_bounded_by_nvars():
    rng = random.Random(79)
    for _ in range(8):
        I = random_monomial_ideal(rng, 4, 3, max_gens=5)
        B = taylor_betti(I)
        assert B.proj_dim() <= 4


def test_twenty_one_generators_need_no_cap():
    """taylor_betti has no generator cap: it tabulates ideals with 20 and
    21 generators and agrees with the Koszul engine on both, multidegrees
    included."""
    ring = mk_ring(5)
    gens = []
    # 20 distinct squarefree-ish monomials in 5 vars, none dividing another
    for c in itertools.combinations(range(5), 3):
        gens.append(tuple(2 * (i in c) for i in range(5)))
    for c in itertools.combinations(range(5), 2):
        gens.append(tuple(3 * (i in c) for i in range(5)))
    I = MonomialIdeal.from_monos(ring, gens[:20])
    assert len(I.gens) == 20
    ring3 = mk_ring(3, ("x", "y", "z"))
    cube = MonomialIdeal.from_monos(ring3, list(monomials_of_degree(3, 5)))  # (x,y,z)^5
    assert len(cube.gens) == 21
    for J, totals in ((I, (1, 20, 45, 36, 10)), (cube, (1, 21, 35, 15))):
        quot = QuotientRing(GroebnerBasis(J.ring, grevlex(J.ring), J.polys()))
        B = taylor_betti(J)
        K = koszul_oracle(quot)
        assert B == K and B.multigraded == K.multigraded
        assert quotient_betti(quot) == B
        assert B.totals() == totals


def test_face_budget_exits_2(monkeypatch, capsys):
    """The lattice elements and faces one table builds are charged against
    FACE_BUDGET; past it taylor_betti raises CapExceededError and the betti
    command exits 2.  (x,y,z)^4 has 105 lattice elements and 78 faces."""
    ring = mk_ring(3, ("x", "y", "z"))
    I = MonomialIdeal.from_monos(ring, list(monomials_of_degree(3, 4)))
    text = ",".join(ring.mono_str(g) for g in I.gens)
    for budget, what in ((150, "Taylor strand budget"), (100, "lcm lattice")):
        monkeypatch.setattr(taylor, "FACE_BUDGET", budget)
        with pytest.raises(CapExceededError, match=what):
            taylor_betti(I)
        assert cli.main(["betti", "--ideal", text]) == 2
        err = capsys.readouterr().err
        assert err.startswith("caps exceeded: " + what)
    monkeypatch.setattr(taylor, "FACE_BUDGET", 183)
    assert taylor_betti(I).totals() == (1, 15, 24, 10)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=["QQ", "F2", "F3"])
def test_taylor_agrees_with_both_oracles_in_every_field(field):
    """Seeded random monomial ideals, squarefree and not, with 3-6
    variables and up to 8 generators: the strand complexes give the table
    of the 2^r-subset Taylor walk and of the Koszul engine, multidegrees
    included."""
    rng = seeded(83)
    for _ in range(40):
        nvars = rng.randint(3, 6)
        squarefree = rng.random() < 0.5
        ring = PolyRing(tuple("x%d" % (i + 1) for i in range(nvars)), field)
        monos = set()
        for _ in range(rng.randint(1, 8)):
            d = rng.randint(1, 4)
            m = [0] * nvars
            if squarefree:
                for v in rng.sample(range(nvars), min(d, nvars)):
                    m[v] = 1
            else:
                for _ in range(d):
                    m[rng.randrange(nvars)] += 1
            monos.add(tuple(m))
        I = MonomialIdeal.from_monos(ring, monos)
        B = taylor_betti(I)
        quot = QuotientRing(GroebnerBasis(ring, grevlex(ring), I.polys()))
        for other in (taylor_oracle(I), koszul_oracle(quot)):
            assert B.entries == other.entries
            assert B.multigraded == other.multigraded


# the faces of the 6-vertex triangulation of the real projective plane
RP2_FACES = ("123", "134", "145", "156", "162", "235", "346", "452", "563", "624")


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=["QQ", "F2", "F3"])
def test_rp2_table_depends_on_the_characteristic(field):
    """The Stanley-Reisner ideal of RP^2 (fixtures/rp2.txt): its 10
    squarefree cubics are the triples that are not faces.  H~_1(RP^2) =
    Z/2, so over F2 alone the table gains beta_{3,6} = beta_{4,6} = 1."""
    ring, cubics = rp2_cubics(field)
    faces = {frozenset(map(int, f)) for f in RP2_FACES}
    assert sorted(cubics, reverse=True) == [
        tuple(int(v in t) for v in range(1, 7))
        for t in itertools.combinations(range(1, 7), 3)
        if frozenset(t) not in faces
    ]
    I = MonomialIdeal.from_monos(ring, cubics)
    B = taylor_betti(I)
    want = {(0, 0): 1, (1, 3): 10, (2, 4): 15, (3, 5): 6}
    if field.char == 2:
        want.update({(3, 6): 1, (4, 6): 1})
    assert B.entries == want
    quot = QuotientRing(GroebnerBasis(ring, grevlex(ring), I.polys()))
    for other in (taylor_oracle(I), koszul_oracle(quot)):
        assert B.entries == other.entries
        assert B.multigraded == other.multigraded
