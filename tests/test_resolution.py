"""The stepwise resolution of k: closed-form Poincare series, the Serre
bound, the work budget, and agreement with a straightforward stepwise
resolution kept here as an oracle."""

import re
from math import comb, gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from golodlab import (
    GF,
    QQ,
    BettiTable,
    GroebnerBasis,
    InconsistencyError,
    PolyRing,
    QuotientRing,
    grevlex,
    lex,
    weight_order,
)
from golodlab import resolution
from golodlab.koszul import koszul_betti, quotient_betti
from golodlab.linalg import Eliminator, axpy, kernel_basis
from golodlab.monomial import MonomialIdeal
from golodlab.parsing import infer_ring_from_text, parse_poly
from golodlab.resolution import (
    Multidegrees,
    bigraded_golod_series,
    multigraded_golod_series,
    poincare_coeffs,
    serre_bound,
)
from golodlab.rings import mono_deg

from conftest import (
    koszul_oracle,
    random_homogeneous_ideal,
    random_homogeneous_poly,
    random_monomial_ideal,
    rp2_cubics,
    seeded,
)

F2, F3, F32003 = GF(2), GF(3), GF(32003)
# the oracle comparisons draw every field kind, small characteristic included
FIELDS = st.sampled_from([QQ, GF(2), GF(3), F32003])


def quotient(text, field=QQ):
    ring = infer_ring_from_text(text, field)
    gens = [parse_poly(s, ring) for s in text.split(",")]
    return QuotientRing(GroebnerBasis(ring, grevlex(ring), gens))


# a term order of each kind, none with the identity priority but the
# default grevlex, keyed by name, on a ring in 3 variables or more
ORDERS = {
    "lex_priority": lambda ring: lex(ring, (2, 0, 1) + tuple(range(3, ring.nvars))),
    "weight": lambda ring: weight_order(
        ring, range(ring.nvars, 0, -1), (1, 2, 0) + tuple(range(3, ring.nvars))
    ),
    "grevlex": grevlex,
}


def ci_series(n, c, N):
    """Coefficients of (1+t)^n / (1-t^2)^c through t^N."""
    geom = [0] * (N + 1)
    for k in range(N // 2 + 1):
        geom[2 * k] = comb(c + k - 1, k)
    return tuple(
        sum(comb(n, i) * geom[d - i] for i in range(min(n, d) + 1)) for d in range(N + 1)
    )


# ---------------------------------------------------------------------------
# oracle: one kernel_basis per slice, then a second elimination that splits
# the kernel into multiples of lower-degree kernel vectors and new generators


def _oracle_slices(quot, gens, j, multi):
    slices = {}
    for t, (deg, grade, _) in enumerate(gens):
        if j - deg < 0:
            continue
        for m in quot.std_monomials(j - deg):
            g = tuple(a + b for a, b in zip(grade, m)) if multi else grade + mono_deg(m)
            slices.setdefault(g, []).append((t, m))
    return slices


def _oracle_image(quot, image, m):
    out = {}
    for (s, m1), c in image.items():
        axpy(out, c, {(s, m2): c2 for m2, c2 in quot.mult_mono(m, m1).items()}, quot.field)
    return out


def _oracle_shift(quot, vec, v):
    out = {}
    for (t, m), c in vec.items():
        axpy(out, c, {(t, m2): c2 for m2, c2 in quot.mult_var(v, m).items()}, quot.field)
    return out


def oracle_resolution(quot, N):
    """(coefficients, graded) of the minimal resolution of k through step N,
    each step searched up to its bigraded ceiling."""
    field_ = quot.field
    multi = quot.is_monomial
    nvars = quot.ring.nvars
    big = bigraded_golod_series(nvars, (koszul_oracle if multi else koszul_betti)(quot), N)
    tops = [max(d, default=-1) for d in big]
    current = [(0, tuple([0] * nvars) if multi else 0, {})]
    coefficients = [1]
    graded = {(0, 0): 1}
    for step in range(1, N + 1):
        kernels = {}
        new_gens = []
        lo = min(g[0] for g in current) + 1 if current else 1
        for j in range(lo, tops[step] + 1):
            for g, cols in sorted(_oracle_slices(quot, current, j, multi).items()):
                images = [_oracle_image(quot, current[t][2], m) for (t, m) in cols]
                combos = kernel_basis(images, field_)
                if not combos:
                    continue
                kvecs = [{cols[i]: c for i, c in combo.items()} for combo in combos]
                kernels[g] = kvecs
                elim = Eliminator(field_)
                tag = 0
                for v in range(nvars):
                    prev = g[:v] + (g[v] - 1,) + g[v + 1 :] if multi else j - 1
                    if multi and prev[v] < 0:
                        continue
                    for k in kernels.get(prev, []):
                        shifted = _oracle_shift(quot, k, v)
                        if shifted:
                            elim.insert(shifted, tag)
                            tag += 1
                for vec in kvecs:
                    if elim.insert(dict(vec), tag) is None:
                        new_gens.append((j, g, vec))
                        graded[(step, j)] = graded.get((step, j), 0) + 1
                    tag += 1
        coefficients.append(len(new_gens))
        current = new_gens
    return tuple(coefficients), graded


# ---------------------------------------------------------------------------
# closed forms


@pytest.mark.parametrize("field", [QQ, F32003], ids=["QQ", "F32003"])
@pytest.mark.parametrize(
    "text, n, c",
    [
        ("x^2, y^3", 2, 2),
        ("x^2-y^2, x*y", 2, 2),
        ("x^2, y^2, z^2", 3, 3),
        ("x^3", 1, 1),
        ("x*y-z^2", 3, 1),
    ],
)
def test_complete_intersection_closed_form(text, n, c, field):
    quot = quotient(text, field)
    P = poincare_coeffs(quot, 6)
    assert P.coefficients == ci_series(n, c, 6)


def test_non_monomial_ci_is_sliced_by_total_degree():
    quot = quotient("x^2-y^2, x*y")
    assert not quot.is_monomial
    P = poincare_coeffs(quot, 5)
    assert set(j for (_, j) in P.graded) == set(range(6))
    # a quadratic complete intersection is Koszul: step i sits in degree i
    assert all(i == j for (i, j) in P.graded)


@pytest.mark.parametrize("field", [QQ, F32003], ids=["QQ", "F32003"])
def test_golod_quotient_meets_the_serre_bound(field):
    P = poincare_coeffs(quotient("x^2, x*y", field), 8)
    assert P.is_equality()
    assert P.first_gap() is None
    assert P.coefficients[:4] == (1, 2, 3, 5)


def test_not_golod_quotient_shows_the_first_gap():
    P = poincare_coeffs(quotient("x^2, y^2"), 5)
    assert P.coefficients == (1, 2, 3, 4, 5, 6)
    assert P.bound[:4] == (1, 2, 3, 5)
    assert P.first_gap() == 3


# ---------------------------------------------------------------------------
# the work budget


def test_a_spent_budget_keeps_a_prefix_of_the_steps(monkeypatch):
    """Every budget below the 5767 inserts gorenstein3 needs through t^8
    returns the first steps of the full run and cuts the bound to match."""
    quot = quotient(GORENSTEIN3)
    full = poincare_coeffs(quot, 8)
    reached = []
    for budget in (0, 20, 100, 400, 1000, 2500, 5766, 5767):
        monkeypatch.setattr(resolution, "POINCARE_BUDGET", budget)
        P = poincare_coeffs(quot, 8)
        n = len(P.coefficients)
        assert P.N == n - 1
        assert P.coefficients == full.coefficients[:n]
        assert P.bound == full.bound[:n]
        assert P.graded == {k: v for k, v in full.graded.items() if k[0] < n}
        reached.append(P.N)
    # a step is kept once its generators are found, even when the budget
    # then runs out on the kernel the next step reads: with 0 inserts the
    # variables, found without elimination, still make step 1
    assert reached == [1, 3, 3, 5, 6, 7, 7, 8]


def test_a_spent_budget_keeps_a_prefix_of_the_expanded_series(monkeypatch):
    """The monomial walk needs 103 inserts through t^8 on x^2, x*y, y^3,
    y*z^2; every smaller budget keeps the steps it finished, and the series
    expanded through them is the full run's."""
    quot = quotient("x^2, x*y, y^3, y*z^2")
    full = poincare_coeffs(quot, 8)
    reached = set()
    for budget in range(104):
        monkeypatch.setattr(resolution, "POINCARE_BUDGET", budget)
        P = poincare_coeffs(quot, 8)
        assert P.coefficients == full.coefficients[: P.N + 1]
        assert P.bound == full.bound[: P.N + 1]
        assert P.graded == {k: v for k, v in full.graded.items() if k[0] <= P.N}
        reached.add(P.N)
    # no step past t^5 inserts anything in the box (2, 3, 2)
    assert reached == {1, 2, 3, 4, 5, 8}


# ---------------------------------------------------------------------------
# agreement with the oracle


def _compare(quot, N):
    P = poincare_coeffs(quot, N)
    assert (P.coefficients, P.graded) == oracle_resolution(quot, N)


def _monomial_quotient(rng, nvars, field=QQ):
    I = random_monomial_ideal(rng, nvars, 3, max_gens=4)
    ring = PolyRing(I.ring.names, field)
    return QuotientRing(GroebnerBasis(ring, grevlex(ring), [ring.monomial(m) for m in I.gens]))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 9), N=st.integers(1, 5), field=FIELDS)
def test_monomial_quotients_match_oracle(seed, N, field):
    rng = seeded(seed)
    _compare(_monomial_quotient(rng, rng.randint(1, 3), field), N)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10 ** 9), N=st.integers(1, 4), field=FIELDS)
def test_four_variable_monomial_quotients_match_oracle(seed, N, field):
    _compare(_monomial_quotient(seeded(seed), 4, field), N)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 9), nvars=st.integers(1, 4), N=st.integers(0, 7))
def test_multigraded_series_sums_to_the_bigraded_one(seed, nvars, N):
    quot = _monomial_quotient(seeded(seed), nvars)
    table = quotient_betti(quot)
    big = bigraded_golod_series(nvars, table, N)
    grades = Multidegrees(nvars, max(max(d, default=0) for d in big) + 1)
    summed = [{} for _ in big]
    for step, coeffs in enumerate(multigraded_golod_series(table, grades, N)):
        for g, c in coeffs.items():
            d = grades.degree(g)
            assert sum(grades.unpack(g)) == d  # no digit carried
            summed[step][d] = summed[step].get(d, 0) + c
    assert summed == big


def _any_order(ring, data):
    """A lex, grevlex or weight order on ring, with a drawn priority."""
    n = ring.nvars
    priority = data.draw(st.permutations(range(n)))
    kind = data.draw(st.sampled_from(["lex", "grevlex", "weight"]))
    if kind == "weight":
        weights = data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
        return weight_order(ring, weights, priority)
    return (lex if kind == "lex" else grevlex)(ring, priority)


@settings(max_examples=60, deadline=None)
@given(
    nvars=st.integers(1, 4),
    top=st.integers(0, 6),
    data=st.data(),
)
def test_walk_keys_sort_as_generator_then_term_order(nvars, top, data):
    """The total-degree walk keys m * g_t by t * U + pack(m), U the packing's
    unit: below U for every m of degree at most `top`, in (t, term order)
    order under every kind of order, and affine, pack(x_v * m) = pack(m) +
    weights[v], so a shift by x_v moves every key by one constant."""
    ring = PolyRing(tuple("x%d" % v for v in range(nvars)), QQ)
    order = _any_order(ring, data)
    packing = resolution._TermPacking(order, nvars, top)
    U = packing.unit
    exps = st.lists(st.integers(0, top), min_size=nvars, max_size=nvars).filter(
        lambda m: sum(m) <= top
    )
    pairs = data.draw(st.lists(st.tuples(st.integers(0, 2), exps.map(tuple)), max_size=8))
    assert packing.pack((0,) * nvars) == packing.one
    for _, m in pairs:
        g = packing.pack(m)
        assert 0 <= g < U and packing.monos[g] == m
        for v in range(nvars):
            if sum(m) < top:
                xm = tuple(e + (w == v) for w, e in enumerate(m))
                assert packing.pack(xm) == g + packing.weights[v]
    keyed = sorted(pairs, key=lambda tm: tm[0] * U + packing.pack(tm[1]))
    assert keyed == sorted(pairs, key=lambda tm: (tm[0], order.key(tm[1])))


def sympy_golod_series(nvars, entries, N):
    """sympy's t-expansion of (1+ut)^n / (1 - sum_{i>=1} b_{i,j} u^j t^{i+1})
    through t^N, one {j: coefficient} dict per power of t."""
    t, u = sympy.symbols("t u")
    denom = 1 - sum(b * u ** j * t ** (i + 1) for (i, j), b in entries.items() if i >= 1)
    expansion = sympy.series((1 + u * t) ** nvars / denom, t, 0, N + 1).removeO()
    out = [{} for _ in range(N + 1)]
    for (d, j), c in sympy.Poly(sympy.expand(expansion), t, u).terms():
        out[d][j] = int(c)
    return out


@pytest.mark.parametrize(
    "nvars, entries, N",
    [
        (2, {(0, 0): 1}, 6),  # the polynomial ring: (1+ut)^2
        (1, {(0, 0): 1, (1, 2): 1}, 7),  # k[x]/(x^2): 1/(1-ut)
        (3, {(0, 0): 1, (1, 2): 2, (1, 3): 1, (2, 4): 3, (2, 5): 1, (3, 6): 2}, 6),
        (4, {(0, 0): 1, (1, 3): 4, (2, 4): 1, (4, 9): 5}, 5),
        (2, {(0, 0): 1, (1, 2): 1, (2, 3): 1}, 0),
    ],
)
def test_bigraded_series_matches_a_sympy_expansion(nvars, entries, N):
    assert bigraded_golod_series(nvars, BettiTable(entries), N) == sympy_golod_series(
        nvars, entries, N
    )


def test_bigraded_series_of_real_tables_matches_a_sympy_expansion(gorenstein_gb):
    for quot in (gorenstein_gb.quotient(), quotient("x^2,xy,y^3,yz^2")):
        table = quotient_betti(quot)
        nvars = quot.ring.nvars
        assert bigraded_golod_series(nvars, table, 8) == sympy_golod_series(
            nvars, table.entries, 8
        )


def test_serre_bound_is_the_bound_poincare_coeffs_reports():
    """x^2, y^2 is not Golod, so the bound differs from the coefficients:
    (1+t)^2 / (1 - 2t^2 - t^3) has the Fibonacci numbers from t^1 on."""
    quot = quotient("x^2, y^2")
    P = poincare_coeffs(quot, 8)
    assert P.N == 8  # the budget did not cut the block
    assert serre_bound(quot, 8) == P.bound == (1, 2, 3, 5, 8, 13, 21, 34, 55)
    assert P.bound != P.coefficients


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10 ** 9), N=st.integers(1, 5), field=FIELDS)
def test_graded_quotients_match_oracle(seed, N, field):
    rng = seeded(seed)
    ring = PolyRing(("x", "y", "z"), field)
    gens = random_homogeneous_ideal(rng, ring, max_deg=2, n_gens=3)
    if not gens:
        return
    quot = QuotientRing(GroebnerBasis(ring, grevlex(ring), gens))
    if not quot.gb.gens or any(mono_deg(l) == 0 for l in quot.gb.lts):
        return
    _compare(quot, N)


@pytest.mark.parametrize("field", [QQ, F2, F3], ids=["QQ", "F2", "F3"])
@pytest.mark.parametrize("order", list(ORDERS))
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10 ** 9), N=st.integers(1, 5))
def test_graded_quotients_match_oracle_under_each_order(order, field, seed, N):
    """The walk by total degree orders each generator's columns as the
    Groebner basis's term order does, and skips those with a parent
    dependent one degree down; under lex with a permuted priority, a weight
    order and grevlex it agrees with the oracle, which uses no column
    order."""
    rng = seeded(seed)
    ring = PolyRing(("x", "y", "z"), field)
    gens = random_homogeneous_ideal(rng, ring, max_deg=3, n_gens=3)
    if not gens:
        return
    quot = QuotientRing(GroebnerBasis(ring, ORDERS[order](ring), gens))
    if quot.is_monomial or any(mono_deg(l) == 0 for l in quot.gb.lts):
        return
    _compare(quot, N)


@pytest.mark.parametrize(
    "text, order, field, N",
    [
        ("x*y, -x^2*z+2*z^3, 3*x^3+3*x*y^2+y^3", "grevlex", QQ, 3),
        ("x*y, -x^2*z+2*z^3, 3*x^3+3*x*y^2+y^3", "weight", QQ, 3),
        ("x*z^2+y^2*z+y*z^2, 2*x^2*y+z^3, x^2*z+2*x*y^2", "grevlex", F3, 4),
        ("x*y+y*z+z^2, x^3+y^2*z", "grevlex", F2, 5),
        ("-2*x*y+2*y*z-z^2, -2*x^2*y+x*z^2-2*y^2*z", "lex_priority", QQ, 5),
    ],
    ids=["grevlex-QQ", "weight-QQ", "grevlex-F3", "grevlex-F2", "lex_priority-QQ"],
)
def test_the_columns_follow_the_term_order(text, order, field, N):
    """Inputs on which a walk that packs its columns in lex order with the
    identity priority, whatever the basis's order, skips a column that is
    not dependent on the columns before it: some multiple of an earlier
    column has a normal-form term past it.  The walk raises there; packed
    in the basis's own order it agrees with the oracle."""
    ring = PolyRing(("x", "y", "z"), field)
    gens = [parse_poly(s, ring) for s in text.split(",")]
    quot = QuotientRing(GroebnerBasis(ring, ORDERS[order](ring), gens))
    assert not quot.is_monomial
    _compare(quot, N)


@pytest.mark.parametrize("field", [QQ, F2, F3], ids=["QQ", "F2", "F3"])
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10 ** 9),
    nvars=st.integers(3, 5),
    N=st.integers(1, 6),
    monomial=st.booleans(),
)
def test_resolution_of_k_inverts_the_hilbert_series(field, seed, nvars, N, monomial):
    """H_A(u) P(u, -1) = 1 through u^N: for every j <= N, sum_s sum_j'
    (-1)^s P_{s,j'} dim A_{j-j'} = [j = 0], the Euler characteristic of the
    resolution of k in internal degree j.  dim A_d is read off the standard
    monomials, so this oracle does not use the Betti table that the walk's
    own Euler check reads."""
    rng = seeded(seed)
    ring = PolyRing(tuple("x%d" % v for v in range(1, nvars + 1)), field)
    # generators of degree 2 and 3, one term each or up to three
    gens = [
        random_homogeneous_poly(rng, ring, rng.randint(2, 3), 1 if monomial else 3)
        for _ in range(rng.randint(2, 6))
    ]
    quot = QuotientRing(GroebnerBasis(ring, grevlex(ring), gens))
    pdata = poincare_coeffs(quot, N)
    for j in range(pdata.N + 1):
        euler = sum(
            (-1) ** s * c * len(quot.std_monomials(j - jp))
            for (s, jp), c in pdata.graded.items()
            if jp <= j
        )
        assert euler == (j == 0), j


# ---------------------------------------------------------------------------
# the two slicings against each other: a transvection x_i -> x_i + x_j is a
# graded automorphism of R, so it keeps the Poincare series of k, and it
# takes a monomial quotient, walked by multidegree, to one walked by total
# degree exactly when it moves the ideal


def _transvect(ring, m, i, j):
    """The image of the monomial m under x_i -> x_i + x_j."""
    rest = m[:i] + (0,) + m[i + 1 :]
    return ring.monomial(rest) * (ring.var(i) + ring.var(j)) ** m[i]


def _moved(gens, i, j):
    """Some generator m with x_i | m has m * x_j / x_i outside the ideal,
    so x_i -> x_i + x_j does not fix it."""
    def inside(m):
        return any(all(a <= b for a, b in zip(g, m)) for g in gens)

    return any(
        m[i] and not inside(tuple(e - (k == i) + (k == j) for k, e in enumerate(m)))
        for m in gens
    )


def _slicings(monos, names, field, i, j):
    """R/(monos) and its image under x_i -> x_i + x_j."""
    ring = PolyRing(names, field)
    mono = QuotientRing(GroebnerBasis(ring, grevlex(ring), [ring.monomial(m) for m in monos]))
    moved = [_transvect(ring, m, i, j) for m in monos]
    return mono, QuotientRing(GroebnerBasis(ring, grevlex(ring), moved))


def _compare_slicings(mono, quot, N):
    """The two quotients through t^N or the last step both reach.  Returns
    the step the walk by total degree, the one the work budget can cut,
    reached."""
    assert mono.is_monomial and not quot.is_monomial
    P, Q = poincare_coeffs(mono, N), poincare_coeffs(quot, N)
    assert P.N == N and Q.N <= N
    assert Q.coefficients == P.coefficients[: Q.N + 1]
    assert Q.graded == {k: c for k, c in P.graded.items() if k[0] <= Q.N}
    return Q.N


@pytest.mark.parametrize("field", [QQ, F2, F3, F32003], ids=["QQ", "F2", "F3", "F32003"])
@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10 ** 9),
    nvars=st.integers(3, 6),
    N=st.integers(1, 8),
    variable=st.booleans(),
)
def test_a_transvection_keeps_the_series_across_the_slicings(field, seed, nvars, N, variable):
    """A random monomial quotient, with a variable among its generators
    when `variable` is set, against its image under the first transvection
    that makes it a quotient that is not monomial.  The first is walked by
    multidegree in the box below the lcm of its generators, and the rest
    of its series expanded from the denominator; the second is walked by
    total degree in every degree the bigraded bound allows.  A power of
    the maximal ideal is fixed by every transvection, and in characteristic
    p, where (x_i + x_j)^p = x_i^p + x_j^p, so can be other ideals; those
    are skipped.  The walk by total degree gets 20,000 inserts, which on
    six variables can cut it short."""
    rng = seeded(seed)
    I = random_monomial_ideal(rng, nvars, 3, max_gens=6)
    gens = I.gens
    if variable:
        v = rng.randrange(nvars)
        gens = MonomialIdeal.from_monos(I.ring, gens + (I.ring.unit_mono(v),)).gens
    moves = [(i, j) for i in range(nvars) for j in range(nvars) if i != j and _moved(gens, i, j)]
    for i, j in moves:
        mono, quot = _slicings(gens, I.ring.names, field, i, j)
        if not quot.is_monomial:
            break
    else:
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(resolution, "POINCARE_BUDGET", 20_000)
        _compare_slicings(mono, quot, N)


@pytest.mark.parametrize("field", [QQ, F32003], ids=["QQ", "F32003"])
def test_x_to_x_plus_z_keeps_the_series_of_a_golod_quotient(field):
    """x^2, x*y, y^3, y*z^2 under x -> x + z, through t^7."""
    monos = [(2, 0, 0), (1, 1, 0), (0, 3, 0), (0, 1, 2)]
    assert _compare_slicings(*_slicings(monos, ("x", "y", "z"), field, 0, 2), 7) == 7


# ---------------------------------------------------------------------------
# the default N=8 on heavier inputs, the work done, and the exactness check

GORENSTEIN3 = "x1^2, x1*x3, -x1*x2+x3^2, x2*x3, x2^2"
# the slowest input of the graded corpora
TCF_CUBICS = "4*t*f^2+2*t*c*f, -c^2*f, 6*c*f^2-3*t*c*f, -3*t*c*f+9*f^3"


@pytest.mark.parametrize("field", [QQ, F32003], ids=["QQ", "F32003"])
@pytest.mark.parametrize(
    "text",
    [
        GORENSTEIN3,
        TCF_CUBICS,
        "x^2, x*y, y^3, y*z^2",
    ],
    ids=["gorenstein3", "tcf_cubics", "x2_xy_y3_yz2"],
)
def test_default_length_matches_oracle(text, field):
    """The CLI's default length N=8."""
    _compare(quotient(text, field), 8)


def test_inserts_only_nonzero_column_images(monkeypatch):
    """Every insert is a nonzero column image, keyed by negated columns:
    zero images are recorded without elimination, and no kernel vector is
    inserted, since the new generators are read off the pivots."""
    quot = quotient(GORENSTEIN3)
    quotient_betti(quot)  # its strands insert zero columns of their own

    sizes, tops, values, scales = [], [], set(), set()
    insert = Eliminator.insert

    def counting(self, vec, tag=None, scale=1):
        sizes.append(len(vec))
        tops.append(max(vec, default=0))
        values.update(type(c) for c in vec.values())
        scales.add(scale)
        return insert(self, vec, tag, scale)

    monkeypatch.setattr(Eliminator, "insert", counting)
    P = poincare_coeffs(quot, 8)
    assert P.coefficients == (1, 3, 8, 21, 55, 144, 377, 987, 2584)
    assert 0 not in sizes
    assert max(tops) <= 0  # a kernel vector is keyed by positive tags
    # the reduced basis is integral, so no image is scaled
    assert values == {int} and scales == {1}
    # inserting every column image and kernel vector took 19887
    assert len(sizes) == 5767


@pytest.mark.parametrize("field", [QQ, F32003], ids=["QQ", "F32003"])
def test_degree_walk_insert_count(field, monkeypatch):
    """The walk by total degree on four cubics, keyed by ints packed in
    term order, skipping each column with a parent dependent one degree
    down, makes the same inserts in both fields.  Inserting every nonzero
    column image took 17728, and inserting kernel vectors until each
    slice's count of new generators was met, in place of reading them off
    the pivots, 25116.  The reduced basis has 2/3, yet over QQ no inserted
    vector holds a Fraction: each image is kept integral with a scale per
    column, and the kernel vectors handed on as generator images are the
    primitive int vectors with a positive tag entry, the tag being their
    largest column; over F_p that entry is 1."""
    quot = quotient(TCF_CUBICS, field)
    assert not quot.is_monomial
    quotient_betti(quot)
    calls, values, found = [0], set(), []
    insert, record = Eliminator.insert, resolution._DegreeSlices.found

    def counting(self, vec, tag=None, scale=1):
        calls[0] += 1
        values.update(type(c) for c in vec.values())
        return insert(self, vec, tag, scale)

    def recording(self, t, vec):
        found.append(dict(vec))
        return record(self, t, vec)

    monkeypatch.setattr(Eliminator, "insert", counting)
    monkeypatch.setattr(resolution._DegreeSlices, "found", recording)
    P = poincare_coeffs(quot, 8)
    assert P.coefficients == P.bound == (1, 3, 7, 17, 41, 99, 239, 577, 1393)
    assert calls[0] == 14034
    assert values == {int}
    assert len(found) == sum(P.coefficients[1:])
    for vec in found:
        assert {type(c) for c in vec.values()} == {int}
        if field.char:
            assert vec[max(vec)] == 1
        else:
            assert vec[max(vec)] > 0 and gcd(*vec.values()) == 1


def test_monomial_walk_insert_count(monkeypatch):
    """Slices keyed by generator, visited only in the box below the lcm
    (2, 3, 2) of the generators and where the multigraded bound is
    nonzero; the rest of the series is expanded from the denominator with
    no insert.  Visiting every slice where the bound is nonzero made 4277
    inserts here, the walk by total degree 12829, and inserting kernel
    vectors until each slice's count of new generators was met, in place
    of reading them off the pivots, 6220."""
    quot = quotient("x^2, x*y, y^3, y*z^2")
    quotient_betti(quot)
    calls = [0]
    insert = Eliminator.insert

    def counting(self, vec, tag=None, scale=1):
        calls[0] += 1
        return insert(self, vec, tag, scale)

    monkeypatch.setattr(Eliminator, "insert", counting)
    P = poincare_coeffs(quot, 8)
    assert P.coefficients == (1, 3, 7, 17, 41, 99, 239, 577, 1393)
    assert calls[0] == 103


def test_a_lowered_multigraded_coefficient_breaks_the_serre_check(monkeypatch):
    """x^2, x*y is Golod, so its resolution of k meets the multigraded bound
    in every multidegree.  The first coefficient c >= 2 of the bound in the
    box (2, 1), lowered to c - 1 in every expansion of the bound, keeps
    every slice of the walk; the counts then differ from the bound in the
    box, so the series is expanded in every grade and fails the check."""
    real = resolution.multigraded_golod_series
    lowered = []

    def lower(table, grades, N, inside=None):
        series = real(table, grades, N, inside)
        if not lowered:  # the first expansion is the box's
            step, g, c = next(
                (step, g, c)
                for step, coeffs in enumerate(series)
                for g, c in sorted(coeffs.items())
                if c >= 2
            )
            lowered.extend((step, g, c, grades.unpack(g)))
        step, g, c, _ = lowered
        if step < len(series):
            assert series[step][g] == c
            series[step][g] = c - 1
        return series

    quot = quotient("x^2, x*y")
    assert poincare_coeffs(quot, 5).is_equality()
    monkeypatch.setattr(resolution, "multigraded_golod_series", lower)
    with pytest.raises(InconsistencyError, match="Serre bound violated") as err:
        poincare_coeffs(quot, 5)
    step, _, c, alpha = lowered
    assert all(a <= b for a, b in zip(alpha, (2, 1)))
    assert "at step %d, grade %s: %d > %d" % (step, alpha, c, c - 1) in str(err.value)


def test_a_dropped_kernel_vector_breaks_exactness(monkeypatch):
    """Over k[x,y,z]/(x^2, y^2, z^2), step 3 records a two-dimensional
    kernel in multidegree (1, 2, 2), inside the box (2, 2, 2), which the
    step-4 images span, so step 4 finds no new generator there.  Without
    one of its vectors the images have rank above the kernel's recorded
    dimension, which the count of new generators catches."""
    where, dropped = [None], []
    walk = resolution._MonomialSlices.__call__

    def watched(self, step, prev, gens, kernels):
        for item in walk(self, step, prev, gens, kernels):
            where[0] = (step, self.label(item[1]))
            yield item

    class Dropping(Eliminator):
        def insert(self, vec, tag=None, scale=1):
            dep = super().insert(vec, tag, scale)
            if dep is not None and where[0] == (3, (1, 2, 2)) and not dropped:
                dropped.append(dep)
                return None
            return dep

    quot = quotient("x^2, y^2, z^2")
    assert poincare_coeffs(quot, 4).coefficients == ci_series(3, 3, 4)
    monkeypatch.setattr(resolution._MonomialSlices, "__call__", watched)
    monkeypatch.setattr(resolution, "Eliminator", Dropping)
    with pytest.raises(InconsistencyError, match=r"not exact at step 4, degree 5, grade \(1, 2, 2\)"):
        poincare_coeffs(quot, 4)
    assert dropped


@pytest.mark.parametrize(
    "step, delta, message",
    [
        (1, -1, r"negative Poincare coefficient at step 3, grade \(0, 0, 3\): -1"),
        (2, 1, r"Serre bound violated at step 2, grade \(0, 0, 2\): 2 > 1"),
    ],
    ids=["lowered", "raised"],
)
def test_a_corrupted_box_count_breaks_the_expansion(step, delta, message, monkeypatch):
    """The walk over k[x,y,z]/(xy, z^2) counts generators in the box (1, 1,
    2) only.  One count moved by delta, at the smallest grade of its step,
    makes a wrong denominator: a count lowered at z in step 1 expands to a
    negative coefficient at z^3 in step 3, and one raised at z^2 in step 2
    passes the multigraded bound there."""
    quot = quotient("x*y, z^2")
    assert poincare_coeffs(quot, 5).coefficients == ci_series(3, 2, 5)
    series = resolution._MonomialSlices.series

    def corrupted(self, counts):
        counts[step][min(counts[step])] += delta
        return series(self, counts)

    monkeypatch.setattr(resolution._MonomialSlices, "series", corrupted)
    with pytest.raises(InconsistencyError, match=message):
        poincare_coeffs(quot, 5)


@pytest.mark.parametrize(
    "text, top",
    [
        ("x^2, x*y, y^3, y*z^2", (2, 3, 2)),
        ("x*y, z^2", (1, 1, 2)),
        ("x, y^2*z", (1, 2, 1)),
        ("x^3, y^3, z^3, x*y*z", (3, 3, 3)),
    ],
)
def test_no_slice_outside_the_box_is_visited(text, top, monkeypatch):
    """Every slice the walk yields lies below the lcm of the generators, the
    box test agrees with the unpacked exponents on every grade of the full
    multigraded bound, the bound the walk expands is that bound's terms in
    the box, and the series still meets the oracle's through t^6."""
    visited = []
    walk = resolution._MonomialSlices.__call__

    def watched(self, step, prev, gens, kernels):
        for item in walk(self, step, prev, gens, kernels):
            visited.append(self.label(item[1]))
            yield item
        full = multigraded_golod_series(self.table, self.grades, 6)
        for coeffs, box in zip(full, self.box):
            for g in coeffs:
                inside = all(a <= b for a, b in zip(self.label(g), top))
                assert self.inside(g) is inside
            assert box == {g: c for g, c in coeffs.items() if self.inside(g)}

    monkeypatch.setattr(resolution._MonomialSlices, "__call__", watched)
    _compare(quotient(text), 6)
    assert visited and all(all(a <= b for a, b in zip(g, top)) for g in visited)


@pytest.mark.parametrize(
    "field, coefficients",
    [
        (QQ, (1, 6, 25, 95, 361, 1367, 5186)),
        (F3, (1, 6, 25, 95, 361, 1367, 5186)),
        (F2, (1, 6, 25, 95, 362, 1374, 5227)),
    ],
    ids=["QQ", "F3", "F2"],
)
def test_rp2_series_depends_on_the_characteristic(field, coefficients):
    """The Stanley-Reisner ring of RP^2 (fixtures/rp2.txt) through t^6:
    over F2 its Koszul homology has two more classes, beta_{3,6} and
    beta_{4,6}, and the series is larger from t^4 on.  The box (1, ..., 1)
    is all the walk visits."""
    ring, monos = rp2_cubics(field)
    cubics = [ring.monomial(m) for m in monos]
    P = poincare_coeffs(QuotientRing(GroebnerBasis(ring, grevlex(ring), cubics)), 6)
    assert P.coefficients == P.bound == coefficients


@pytest.mark.parametrize(
    "text, walk",
    [("x^2, x*y, y^3, y*z^2", resolution._MonomialSlices), (TCF_CUBICS, resolution._DegreeSlices)],
    ids=["monomial", "total_degree"],
)
def test_an_image_outside_the_kernel_breaks_exactness(text, walk, monkeypatch):
    """Take the first slice past step 1 that has column images and new
    generators, so the images have rank below the kernel's dimension.  The
    first nonzero image gets a term at a column beyond every tag and every
    column it has, which becomes its pivot.  The rank grows by at most
    one, so the pivot, not the count, shows the image left the kernel."""
    grew, where = [], []
    call = walk.__call__

    def bent(self, step, prev, gens, kernels):
        for item in call(self, step, prev, gens, kernels):
            j, g, cols, images, _, _, check = item
            n, dim, hit = len(gens), len(kernels.get(g, ())), any(c in images for c in cols)
            if grew and grew[0] == (step, g):
                col = next(c for c in cols if c in images)
                img = images[col]
                images[col] = {**img, min(min(img), -max(kernels[g])) - 1: 1}
                where.append((step, j, self.label(g), dim))
            yield item
            if step >= 2 and check and hit and len(gens) > n:
                grew.append((step, g))

    monkeypatch.setattr(walk, "__call__", bent)
    quot = quotient(text)
    poincare_coeffs(quot, 5)
    assert grew
    with pytest.raises(InconsistencyError) as err:
        poincare_coeffs(quot, 5)
    step, j, grade, dim = where[0]
    assert "not exact at step %d, degree %d, grade %s" % (step, j, grade) in str(err.value)
    rank = int(re.search(r"rank (\d+) in a kernel of dimension %d" % dim, str(err.value))[1])
    assert rank <= dim


def test_a_column_wrongly_skipped_breaks_exactness(monkeypatch):
    """The walk by total degree skips every column with a parent found
    dependent one degree down, and hands its tag on with no kernel vector:
    x_v times the parent's dependency shows that the next step's images
    pivot there.  Mark the first column of step 1 that extends the basis in
    degree 2 as dependent too.  Its multiples in degree 3 are skipped
    though not all are dependent, so step 2 finds a skipped tag that is no
    pivot, and the tag has no vector to become a generator with."""
    call = resolution._DegreeSlices.__call__
    marked = []

    def marking(self, step, prev, gens, kernels):
        for item in call(self, step, prev, gens, kernels):
            j, _, cols, images, dead, _, _ = item
            yield item
            # the caller has added every column it found dependent to dead
            if (step, j) == (1, 2):
                col = next(c for c in cols if c not in dead)
                assert col in images
                dead.add(col)
                marked.append(col)

    quot = quotient("x*y - z^2, x^3")
    poincare_coeffs(quot, 4)
    monkeypatch.setattr(resolution._DegreeSlices, "__call__", marking)
    with pytest.raises(
        InconsistencyError,
        match=r"not exact at step 2, degree 3, grade 3: "
        r"a column skipped as dependent in step 1 is no pivot",
    ):
        poincare_coeffs(quot, 4)
    assert marked


@pytest.mark.parametrize("text", ["x*y, z^2", "x*y - z^2, x^3"], ids=["monomial", "total_degree"])
def test_every_dropped_dependency_raises_or_keeps_the_low_degrees(text, monkeypatch):
    """Drop one dependency the Eliminator returns, each in turn.  A drop
    whose kernel vector no later slice reaches undercounts the series with
    no exactness failure: over k[x,y,z]/(xy, z^2), the first dependency of
    step 2's slice (1, 1, 1) left the series at 1, 3, 5, 6, 6 where the
    true one is 1, 3, 5, 7, 9.  The Euler characteristic P(u, -1) K(u) =
    (1 - u)^3 through u^4 catches every drop that moves a count in internal
    degree 4 or below; one drop in the total-degree walk only moves a step-4
    generator from degree 5 to 6, which no identity through u^4 can see."""
    true = poincare_coeffs(quotient(text), 4)
    low = lambda graded: {k: c for k, c in graded.items() if k[1] <= 4}
    seen, drop = [0], [None]

    class Dropping(Eliminator):
        def insert(self, vec, tag=None, scale=1):
            dep = super().insert(vec, tag, scale)
            if dep is not None:
                seen[0] += 1
                if seen[0] == drop[0]:
                    return None
            return dep

    monkeypatch.setattr(resolution, "Eliminator", Dropping)
    poincare_coeffs(quotient(text), 4)
    total, raised = seen[0], 0
    for k in range(1, total + 1):
        seen[0], drop[0] = 0, k
        try:
            P = poincare_coeffs(quotient(text), 4)
        except InconsistencyError as err:
            raised += "Euler characteristic" in str(err)
        else:
            assert low(P.graded) == low(true.graded), "drop %d of %d undercounts silently" % (k, total)
    assert raised
