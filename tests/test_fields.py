"""Field axioms over QQ and small prime fields, exercised by hypothesis."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from golodlab import GF, QQ

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)


@given(rationals, rationals, rationals)
def test_qq_ring_axioms(a, b, c):
    a, b, c = QQ.of(a), QQ.of(b), QQ.of(c)
    assert QQ.add(a, b) == QQ.add(b, a)
    assert QQ.mul(a, b) == QQ.mul(b, a)
    assert QQ.add(QQ.add(a, b), c) == QQ.add(a, QQ.add(b, c))
    assert QQ.mul(QQ.mul(a, b), c) == QQ.mul(a, QQ.mul(b, c))
    assert QQ.mul(a, QQ.add(b, c)) == QQ.add(QQ.mul(a, b), QQ.mul(a, c))
    assert QQ.add(a, QQ.neg(a)) == QQ.zero
    assert QQ.sub(a, b) == QQ.add(a, QQ.neg(b))


@given(rationals)
def test_qq_inverse(a):
    a = QQ.of(a)
    if a == QQ.zero:
        with pytest.raises(ZeroDivisionError):
            QQ.inv(a)
    else:
        assert QQ.mul(a, QQ.inv(a)) == QQ.one


def test_qq_is_exact():
    # 1/3 stays 1/3: no binary floating point anywhere
    third = QQ.div(QQ.one, QQ.of(3))
    assert third == Fraction(1, 3)
    acc = QQ.zero
    for _ in range(3):
        acc = QQ.add(acc, third)
    assert acc == QQ.one


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_prime_field_axioms(p):
    F = GF(p)
    elems = [F.of(i) for i in range(p)]
    for a in elems:
        assert F.add(a, F.neg(a)) == F.zero
        if a != F.zero:
            assert F.mul(a, F.inv(a)) == F.one
    # closure and characteristic
    assert F.of(p) == F.zero
    assert F.char == p


def test_gf_rejects_composite():
    for n in (1, 4, 6, 9, 100):
        with pytest.raises(ValueError):
            GF(n)


def test_field_equality_and_hash():
    assert GF(5) == GF(5)
    assert GF(5) != GF(7)
    assert QQ != GF(2)
    assert hash(GF(5)) == hash(GF(5))


@given(st.integers(0, 100), st.integers(0, 100))
def test_gf7_matches_integer_arithmetic(x, y):
    F = GF(7)
    assert F.add(F.of(x), F.of(y)) == F.of(x + y)
    assert F.mul(F.of(x), F.of(y)) == F.of(x * y)
    assert F.sub(F.of(x), F.of(y)) == F.of(x - y)


@given(rationals, rationals)
def test_qq_values_are_int_when_integral_never_float(a, b):
    a, b = QQ.of(a), QQ.of(b)
    results = [a, b, QQ.add(a, b), QQ.sub(a, b), QQ.mul(a, b), QQ.neg(a)]
    if b:
        results += [QQ.inv(b), QQ.div(a, b)]
    for r in results:
        assert type(r) is (int if Fraction(r).denominator == 1 else Fraction)
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert type(QQ.of("6/3")) is int and type(QQ.inv(QQ.of(-1))) is int
