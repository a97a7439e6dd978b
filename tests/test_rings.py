"""Polynomial arithmetic: ring axioms, grading, string round-trips."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from golodlab import GF, QQ, PolyRing, parse_poly, poly_str
from golodlab.errors import InputError
from golodlab.rings import (
    mono_deg,
    mono_div,
    mono_divides,
    mono_is_squarefree,
    mono_lcm,
    mono_mul,
    monomials_of_degree,
)

from conftest import random_monomial

R = PolyRing(("x", "y", "z"), QQ)


def rand_poly(rng, ring=R, max_deg=3, n_terms=4):
    terms = {}
    for _ in range(rng.randint(0, n_terms)):
        m = random_monomial(rng, ring, max_deg)
        terms[m] = ring.field.of(rng.choice([-3, -2, -1, 1, 2, 3]))
    return ring.from_terms(terms)


polys = st.integers(0, 10 ** 9).map(lambda s: rand_poly(random.Random(s)))


@given(polys, polys, polys)
@settings(max_examples=60)
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + R.zero == f
    assert f * R.one == f
    assert f - f == R.zero
    assert f * R.zero == R.zero


@given(polys)
@settings(max_examples=40)
def test_negation_and_scaling(f):
    assert -(-f) == f
    assert f.scale(QQ.of(2)) == f + f
    assert 3 * f == f + f + f


@given(polys, st.integers(0, 4))
@settings(max_examples=30)
def test_power_matches_repeated_product(f, k):
    acc = R.one
    for _ in range(k):
        acc = acc * f
    assert f ** k == acc


@given(polys)
@settings(max_examples=40)
def test_poly_str_round_trip(f):
    assert parse_poly(poly_str(f), R) == f


def test_degree_bookkeeping():
    f = parse_poly("x^2*y - z^3 + x", R)
    assert f.total_degree() == 3
    assert not f.is_homogeneous()
    g = parse_poly("x*y + z^2", R)
    assert g.is_homogeneous()
    assert R.zero.is_homogeneous()


def test_monomial_helpers():
    a, b = (2, 1, 0), (0, 1, 3)
    assert mono_mul(a, b) == (2, 2, 3)
    assert mono_lcm(a, b) == (2, 1, 3)
    assert mono_deg(a) == 3
    assert mono_divides((0, 1, 0), a)
    assert not mono_divides(a, b)
    assert mono_div((2, 2, 3), b) == a
    assert mono_is_squarefree((1, 0, 1))
    assert not mono_is_squarefree(a)


def test_monomials_of_degree_count():
    # stars and bars: C(d + n - 1, n - 1)
    assert len(list(monomials_of_degree(3, 4))) == 15
    assert len(list(monomials_of_degree(2, 5))) == 6
    for m in monomials_of_degree(3, 4):
        assert mono_deg(m) == 4


def test_cross_ring_operations_rejected():
    S = PolyRing(("a", "b"), QQ)
    with pytest.raises(InputError):
        R.one + S.one


def test_char_p_coefficients_wrap():
    F = GF(3)
    S = PolyRing(("x",), F)
    f = S.var(0) + S.var(0) + S.var(0)
    assert f.is_zero()
