"""Term orders: total-order laws, multiplicativity, descriptor round trips."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from golodlab import QQ, PolyRing, diagonal_order, grevlex, lex, parse_order, weight_order
from golodlab.rings import mono_mul

from conftest import random_monomial

R = PolyRing(("x", "y", "z"), QQ)

ORDERS = [lex(R), grevlex(R), weight_order(R, (3, 1, 1)), weight_order(R, (1, 2, 5))]


def monos(seed, count=3):
    rng = random.Random(seed)
    return [random_monomial(rng, R, 4) for _ in range(count)]


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.descriptor(R))
@given(seed=st.integers(0, 10 ** 9))
@settings(max_examples=60)
def test_total_order_laws(order, seed):
    a, b, c = monos(seed)
    # antisymmetry and totality: distinct monomials have distinct keys
    assert (order.key(a) == order.key(b)) == (a == b)
    # transitivity via sort consistency
    ranked = sorted([a, b, c], key=order.key)
    for u, v in zip(ranked, ranked[1:]):
        assert order.key(u) <= order.key(v)


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.descriptor(R))
@given(seed=st.integers(0, 10 ** 9))
@settings(max_examples=60)
def test_multiplicative(order, seed):
    a, b, m = monos(seed)
    ka, kb = order.key(a), order.key(b)
    kam, kbm = order.key(mono_mul(a, m)), order.key(mono_mul(b, m))
    assert (ka < kb, ka == kb) == (kam < kbm, kam == kbm)
    # 1 is minimal among monomials
    assert ka >= order.key((0, 0, 0))


def test_lex_chain():
    o = lex(R)
    x2 = (2, 0, 0)
    xy = (1, 1, 0)
    y3 = (0, 3, 0)
    assert o.key(x2) > o.key(xy)
    assert o.key(xy) > o.key(y3)
    # lex ignores total degree: x > y^3
    assert o.key((1, 0, 0)) > o.key(y3)


def test_grevlex_ties_break_on_last_variable():
    o = grevlex(R)
    # same degree: the monomial with the SMALLER last exponent wins
    assert o.key((1, 1, 0)) > o.key((1, 0, 1))
    assert o.key((2, 0, 0)) > o.key((0, 0, 2))
    # degree dominates
    assert o.key((0, 0, 3)) > o.key((1, 1, 0))


def test_weight_order_two_vars_example():
    # w = (1, 2): x^2 has weight 2, y has weight 2, grevlex tie-break applies
    S = PolyRing(("x", "y"), QQ)
    o = weight_order(S, (1, 2))
    assert o.key((2, 0)) > o.key((0, 1))


def test_diagonal_order_picks_main_diagonal():
    S = PolyRing(tuple("x%d%d" % (r, c) for r in (1, 2) for c in (1, 2, 3)), QQ)
    o = diagonal_order(S, 2, 3)
    # x11*x22 beats x12*x21 so the diagonal leads the 2x2 minor
    m_diag = tuple(1 if n in ("x11", "x22") else 0 for n in S.names)
    m_anti = tuple(1 if n in ("x12", "x21") else 0 for n in S.names)
    assert o.key(m_diag) > o.key(m_anti)


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.descriptor(R))
def test_descriptor_round_trip(order):
    text = order.descriptor(R)
    back = parse_order(text, R)
    rng = random.Random(7)
    ms = [random_monomial(rng, R, 5) for _ in range(400)]
    assert sorted(ms, key=order.key) == sorted(ms, key=back.key)


def dispatched_key(order, m):
    """The per-call dispatch on `kind` that `TermOrder.key` replaces."""
    pr = order.priority
    if order.kind in ("lex", "diagonal"):
        return tuple(m[i] for i in pr)
    if order.kind == "grevlex":
        return (sum(m),) + tuple(-m[i] for i in reversed(pr))
    return (sum(w * e for w, e in zip(order.wvec, m)),) + tuple(m[i] for i in pr)


@given(
    nvars=st.integers(1, 4),
    seed=st.integers(0, 10 ** 9),
    kind=st.sampled_from(["lex", "grevlex", "weight", "diagonal"]),
)
@settings(max_examples=100)
def test_key_matches_dispatch_on_kind(nvars, seed, kind):
    rng = random.Random(seed)
    S = PolyRing(tuple("v%d" % i for i in range(nvars)), QQ)
    priority = list(range(nvars))
    if rng.random() < 0.5:
        rng.shuffle(priority)
    if kind == "lex":
        order = lex(S, priority)
    elif kind == "grevlex":
        order = grevlex(S, priority)
    elif kind == "weight":
        order = weight_order(S, [rng.randint(1, 4) for _ in range(nvars)], priority)
    else:
        order = diagonal_order(S, 1, nvars)
    for _ in range(20):
        m = random_monomial(rng, S, 5)
        assert order.key(m) == dispatched_key(order, m)
