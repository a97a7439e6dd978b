"""Buchberger engine: normal forms, basis laws, the worked lex example."""

import random
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from golodlab import (
    GF,
    QQ,
    GroebnerBasis,
    MonomialIdeal,
    PolyRing,
    QuotientRing,
    grevlex,
    lex,
    parse_poly,
    weight_order,
)
from golodlab import groebner
from golodlab.groebner import buchberger, normal_form, s_polynomial
from golodlab.monomial import display_sorted
from golodlab.rings import mono_deg, mono_divides, monomials_of_degree

from conftest import random_homogeneous_ideal, random_monomial, random_monomial_ideal


def corpus(seed=4201, count=12):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        ring = PolyRing(("x", "y", "z"), QQ)
        gens = random_homogeneous_ideal(rng, ring, max_deg=3, n_gens=3)
        if gens:
            order = rng.choice([lex(ring), grevlex(ring)])
            out.append(GroebnerBasis(ring, order, gens))
    return out


def test_normal_form_is_idempotent_and_linear():
    rng = random.Random(99)
    for gb in corpus(7, 8):
        ring = gb.ring
        fs = random_homogeneous_ideal(rng, ring, max_deg=4, n_gens=2)
        for f in fs:
            r = gb.nf(f)
            assert gb.nf(r) == r
        if len(fs) == 2:
            f, g = fs
            assert gb.nf(f + g) == gb.nf(gb.nf(f) + gb.nf(g))


def test_generators_reduce_to_zero():
    for gb in corpus(11, 8):
        for g in gb.source_gens if hasattr(gb, "source_gens") else gb.gens:
            assert gb.nf(g).is_zero()


def test_membership_closed_under_combinations():
    rng = random.Random(5)
    for gb in corpus(13, 6):
        ring = gb.ring
        f = ring.zero
        for g in gb.gens:
            m = tuple(rng.randint(0, 1) for _ in range(ring.nvars))
            f = f + (g * ring.monomial(m)).scale(QQ.of(rng.choice([-2, 1, 3])))
        assert gb.nf(f).is_zero()


def test_buchberger_criterion_all_s_polys_reduce():
    # independent certificate that each output basis really is one
    for gb in corpus(17, 10):
        G = gb.gens
        for i in range(len(G)):
            for j in range(i + 1, len(G)):
                s = s_polynomial(G[i], G[j], gb.order)
                assert normal_form(s, G, gb.order).is_zero()


def test_reduced_basis_unique_across_presentations():
    rng = random.Random(23)
    for gb in corpus(29, 6):
        ring = gb.ring
        gens = list(gb.gens)
        rng.shuffle(gens)
        # rescale and mix: same ideal, different presentation
        mixed = [g.scale(QQ.of(rng.choice([2, 3, -1]))) for g in gens]
        if len(mixed) >= 2:
            mixed[0] = mixed[0] + mixed[1]
        gb2 = GroebnerBasis(ring, gb.order, mixed)
        assert set(gb.gens) == set(gb2.gens)
        # mutual membership
        assert all(gb2.nf(g).is_zero() for g in gb.gens)
        assert all(gb.nf(g).is_zero() for g in gb2.gens)


def test_lex_example_initial_ideal(gorenstein_gb):
    ring = gorenstein_gb.ring
    got = display_sorted(gorenstein_gb.initial_ideal().gens)
    assert [ring.mono_str(m) for m in got] == [
        "x1^2", "x1*x2", "x2^2", "x1*x3", "x2*x3", "x3^3",
    ]


def test_initial_ideal_matches_leading_terms():
    for gb in corpus(31, 6):
        init = gb.initial_ideal()
        assert init == MonomialIdeal.from_monos(gb.ring, gb.lts)


def test_hilbert_matches_monomial_count(gorenstein_gb):
    quot = QuotientRing(gorenstein_gb)
    init = MonomialIdeal.from_monos(gorenstein_gb.ring, gorenstein_gb.lts)
    for d in range(7):
        assert len(quot.std_monomials(d)) == sum(
            1 for m in monomials_of_degree(3, d) if not any(mono_divides(g, m) for g in init.gens)
        )
    # Gorenstein Artinian with socle degree 2: 1, 3, 1, 0, ...
    assert [len(quot.std_monomials(d)) for d in range(4)] == [1, 3, 1, 0]


def test_std_monomials_are_sorted_and_closed(gorenstein_gb):
    quot = QuotientRing(gorenstein_gb)
    for d in range(4):
        std = quot.std_monomials(d)
        assert list(std) == sorted(std)
        for m in std:
            assert mono_deg(m) == d
            assert not quot.contains_mono(m)


def test_mult_var_lands_on_std_monomials(gorenstein_gb):
    quot = QuotientRing(gorenstein_gb)
    ring = quot.ring
    std1 = quot.std_monomials(1)
    for m in std1:
        for i in range(ring.nvars):
            vec = quot.mult_var(i, m)
            for key, c in vec.items():
                assert not quot.contains_mono(key)
                assert c != QQ.zero
    # commutativity in the quotient: x_i (x_j m) = x_j (x_i m)
    m = std1[0]
    a = {}
    for k, c in quot.mult_var(0, m).items():
        for k2, c2 in quot.mult_var(1, k).items():
            a[k2] = QQ.add(a.get(k2, QQ.zero), QQ.mul(c, c2))
    b = {}
    for k, c in quot.mult_var(1, m).items():
        for k2, c2 in quot.mult_var(0, k).items():
            b[k2] = QQ.add(b.get(k2, QQ.zero), QQ.mul(c, c2))
    assert {k: v for k, v in a.items() if v} == {k: v for k, v in b.items() if v}


def test_monomial_input_is_its_own_basis():
    rng = random.Random(41)
    for _ in range(6):
        I = random_monomial_ideal(rng, 3, 3)
        gb = GroebnerBasis(I.ring, grevlex(I.ring), I.polys())
        assert set(gb.lts) == set(I.gens)


def _monomial_input(rng, ring):
    """Monomial generators as a user may write them: scaled, repeated, and
    with zero generators among them (a multiple of the characteristic
    scales a monomial to zero)."""
    gens = []
    for _ in range(rng.randint(1, 6)):
        gens.append(ring.monomial(random_monomial(rng, ring, 3), rng.choice([1, -1, 2, 3, 5, -7])))
        if rng.random() < 0.3:
            gens.append(gens[-1])
    if rng.random() < 0.3:
        gens.insert(rng.randrange(len(gens) + 1), ring.zero)
    return gens


def _random_order(rng, ring):
    priority = rng.sample(range(ring.nvars), ring.nvars)
    return rng.choice([
        lex(ring),
        grevlex(ring),
        lex(ring, priority),
        weight_order(ring, [rng.randint(1, 4) for _ in range(ring.nvars)], priority),
    ])


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(32003)], ids=["QQ", "F2", "F3", "F32003"])
def test_monomial_generators_skip_buchberger(field, monkeypatch):
    """Non-constant monomial generators are their own Groebner basis: the
    basis is the one buchberger returns on them, in every field and order,
    and buchberger never runs."""
    calls = []

    def counted(*args):
        calls.append(args)
        return buchberger(*args)

    monkeypatch.setattr(groebner, "buchberger", counted)
    rng = random.Random(2704)
    for _ in range(150):
        ring = PolyRing(tuple("x%d" % v for v in range(rng.randint(1, 5))), field)
        order = _random_order(rng, ring)
        gens = _monomial_input(rng, ring)
        gb = GroebnerBasis(ring, order, gens)
        assert gb.gens == buchberger(gens, order)
        assert gb.is_monomial
        assert gb.initial_ideal() == MonomialIdeal.from_monos(ring, gb.lts)
    assert calls == []


def test_is_monomial_reads_the_reduced_basis():
    """A constant generator goes through buchberger; a basis is monomial
    when its reduced basis is, whatever the generators look like."""
    ring = PolyRing(("x", "y"), QQ)
    order = grevlex(ring)
    gb = GroebnerBasis(ring, order, [parse_poly(t, ring) for t in ("x^2+x*y", "x*y")])
    assert gb.is_monomial and gb.quotient().is_monomial
    assert [ring.mono_str(m) for m in gb.lts] == ["x*y", "x^2"]
    assert gb.initial_quotient() is gb.quotient()
    unit = GroebnerBasis(ring, order, [parse_poly("x", ring), ring.const(3)])
    assert unit.gens == (ring.one,)
    gb = GroebnerBasis(ring, order, [parse_poly("x^2-y^2", ring)])
    assert not gb.is_monomial
    assert gb.initial_quotient().is_monomial


def test_zero_ideal_and_unit_ideal():
    ring = PolyRing(("x", "y"), QQ)
    gb = GroebnerBasis(ring, lex(ring), [])
    assert not gb.gens
    gb1 = GroebnerBasis(ring, lex(ring), [parse_poly("x + 1", ring), parse_poly("x", ring)])
    assert gb1.nf(ring.one).is_zero()


def test_quotient_brute_force_dimension():
    # dim_k of degree-d slice equals monomials minus those hit by lts
    rng = random.Random(43)
    for _ in range(5):
        I = random_monomial_ideal(rng, 3, 3)
        gb = GroebnerBasis(I.ring, grevlex(I.ring), I.polys())
        quot = QuotientRing(gb)
        for d in range(5):
            brute = sum(
                1 for m in monomials_of_degree(3, d) if not any(mono_divides(g, m) for g in I.gens)
            )
            assert len(quot.std_monomials(d)) == brute


def _canonical(polys):
    """Each polynomial as sorted (exponents, coefficient) pairs, scaled to
    coefficient 1 at its lexicographically largest exponent vector."""
    out = []
    for terms in polys:
        lead = terms[max(terms)]
        out.append(tuple(sorted((m, Fraction(c) / lead) for m, c in terms.items())))
    return sorted(out)


@st.composite
def graded_ideals(draw):
    """One to three homogeneous polynomials of degree 1 to 3 in QQ[x,y,z]."""
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        pool = list(monomials_of_degree(3, draw(st.integers(1, 3))))
        support = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True))
        coeffs = st.fractions(-4, 4, max_denominator=3).filter(bool)
        gens.append({m: draw(coeffs) for m in support})
    return gens


@settings(max_examples=40, deadline=None)
@given(graded_ideals(), st.sampled_from(["grevlex", "lex"]))
def test_buchberger_matches_sympy_groebner(gens, order_name):
    ring = PolyRing(("x", "y", "z"), QQ)
    order = {"grevlex": grevlex, "lex": lex}[order_name](ring)
    gb = GroebnerBasis(ring, order, [ring.from_terms(t) for t in gens])
    syms = sympy.symbols("x y z")
    exprs = [
        sum(sympy.Rational(c.numerator, c.denominator) * sympy.prod(s ** e for s, e in zip(syms, m))
            for m, c in t.items())
        for t in gens
    ]
    ref = sympy.groebner(exprs, *syms, order=order_name, domain="QQ")
    want = [{m: Fraction(int(c.p), int(c.q)) for m, c in p.terms()} for p in ref.polys]
    assert _canonical([g.terms for g in gb.gens]) == _canonical(want)


@st.composite
def graded_quotients(draw):
    """R/I for one to three homogeneous generators of degree 1 to 3 in 3 or
    4 variables, over QQ, GF(2) or GF(32003), under lex, grevlex or a
    weight order."""
    nvars = draw(st.integers(3, 4))
    field = draw(st.sampled_from([QQ, GF(2), GF(32003)]))
    ring = PolyRing(tuple("x%d" % i for i in range(nvars)), field)
    kind = draw(st.sampled_from(["lex", "grevlex", "weight"]))
    if kind == "weight":
        order = weight_order(ring, draw(st.lists(st.integers(1, 3), min_size=nvars, max_size=nvars)))
    else:
        order = {"grevlex": grevlex, "lex": lex}[kind](ring)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        pool = list(monomials_of_degree(nvars, draw(st.integers(1, 3))))
        support = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True))
        f = ring.from_terms({m: draw(st.integers(-4, 4).filter(bool)) for m in support})
        if not f.is_zero():
            gens.append(f)
    return QuotientRing(GroebnerBasis(ring, order, gens)) if gens else None


@settings(max_examples=60, deadline=None)
@given(graded_quotients())
def test_mult_var_memo_matches_normal_form(quot):
    """The memo of monomial normal forms returns what normal_form returns
    on x_i*m, term for term and in the same order; high degrees go first so
    that they start from an empty memo."""
    if quot is None:
        return
    gb, ring = quot.gb, quot.ring
    for d in range(4, -1, -1):
        for m in quot.std_monomials(d):
            for i in range(ring.nvars):
                prod = ring.monomial(m) * ring.var(i)
                want = normal_form(prod, gb.gens, gb.order)
                assert list(quot.mult_var(i, m).items()) == list(want.terms.items())


def test_monomial_normal_forms_need_no_recursion():
    """x - y under lex takes x^k to y^k through a chain of k reductions;
    the chain is longer than the whole recursion limit."""
    ring = PolyRing(("x", "y"), QQ)
    quot = GroebnerBasis(ring, lex(ring), [parse_poly("x - y", ring)]).quotient()
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    k = 10 * (depth + 50)
    sys.setrecursionlimit(depth + 50)
    try:
        got = quot.mult_var(0, (k - 1, 0))
    finally:
        sys.setrecursionlimit(limit)
    assert got == {(0, k): 1}
