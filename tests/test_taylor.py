"""Minimal Betti numbers from the Taylor complex, cross-checked two ways."""

import random

import pytest

from golodlab import (
    CapExceededError,
    GroebnerBasis,
    MonomialIdeal,
    QuotientRing,
    grevlex,
    has_linear_resolution,
    koszul_betti,
    quotient_betti,
    taylor_betti,
)
from golodlab.rings import monomials_of_degree

from conftest import mk_ring, random_monomial_ideal


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
        gb = GroebnerBasis(I.ring, grevlex(I.ring), I.polys(), reduce=False)
        assert taylor_betti(I).entries == koszul_betti(QuotientRing(gb)).entries


def test_projective_dimension_bounded_by_nvars():
    rng = random.Random(79)
    for _ in range(8):
        I = random_monomial_ideal(rng, 4, 3, max_gens=5)
        B = taylor_betti(I)
        assert B.proj_dim() <= 4


def test_generator_cap():
    """Past the Taylor cap taylor_betti refuses, and quotient_betti, the one
    engine switch, returns koszul_betti's table instead."""
    ring = mk_ring(5)
    gens = []
    # 20 distinct squarefree-ish monomials in 5 vars, none dividing another
    import itertools

    for c in itertools.combinations(range(5), 3):
        m = [0] * 5
        for i in c:
            m[i] = 2
        gens.append(tuple(m))
    for c in itertools.combinations(range(5), 2):
        m = [0] * 5
        for i in c:
            m[i] = 3
        gens.append(tuple(m))
    I = MonomialIdeal.from_monos(ring, gens[:20])
    assert len(I.gens) == 20
    ring3 = mk_ring(3, ("x", "y", "z"))
    cube = MonomialIdeal.from_monos(ring3, list(monomials_of_degree(3, 5)))  # (x,y,z)^5
    assert len(cube.gens) == 21
    for J, totals in ((I, (1, 20, 45, 36, 10)), (cube, (1, 21, 35, 15))):
        with pytest.raises(CapExceededError):
            taylor_betti(J)
        quot = QuotientRing(GroebnerBasis(J.ring, grevlex(J.ring), J.polys(), reduce=False))
        B = quotient_betti(quot)
        assert B == koszul_betti(quot)
        assert B.totals() == totals
