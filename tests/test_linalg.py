"""Sparse exact elimination: ranks, kernels, solves and membership against
sympy over QQ and brute force over GF(7)."""

import itertools
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from golodlab import GF, QQ
from golodlab.linalg import Eliminator, axpy, kernel_basis, rank_of, solve_columns

F7 = GF(7)

qq_entries = st.one_of(
    st.just(0), st.just(0), st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4)
)
f7_entries = st.one_of(st.just(0), st.integers(0, 6))


def sparse(dense, field):
    return {i: field.of(v) for i, v in enumerate(dense) if field.of(v)}


@st.composite
def matrices(draw, entries, max_cols):
    """Columns of a random sparse matrix plus one extra vector b."""
    nrows = draw(st.integers(1, 4))
    ncols = draw(st.integers(0, max_cols))
    cols = [draw(st.lists(entries, min_size=nrows, max_size=nrows)) for _ in range(ncols)]
    b = draw(st.lists(entries, min_size=nrows, max_size=nrows))
    return cols, b


def combine(cols, combo, field):
    out = {}
    for j, c in combo.items():
        axpy(out, c, cols[j], field)
    return out


def check_structure(cols, b, field, rank_of_vectors):
    """Everything that follows from a rank oracle for one field."""
    rank = rank_of(cols, field)
    assert rank == rank_of_vectors(cols)
    # pivot columns: those that raise the rank of the prefix before them
    pivots = [j for j in range(len(cols)) if rank_of_vectors(cols[: j + 1]) > rank_of_vectors(cols[:j])]
    assert len(pivots) == rank

    kernel = kernel_basis(cols, field)
    assert len(kernel) == len(cols) - rank
    # one kernel vector per dependent column, supported on the earliest prefix
    assert sorted(max(k) for k in kernel) == [j for j in range(len(cols)) if j not in pivots]
    for k in kernel:
        top = max(k)
        assert k[top] == 1
        assert set(k) - {top} <= set(p for p in pivots if p < top)
        assert combine(cols, k, field) == {}

    solvable = rank_of_vectors(cols + [b]) == rank
    x = solve_columns(cols, range(len(cols)), b, field)
    assert (x is not None) == solvable
    if x is not None:
        assert set(x) <= set(pivots)
        assert combine(cols, x, field) == b

    e = Eliminator(field)
    for j, col in enumerate(cols):
        e.insert(col, j)
    assert e.contains(b) == solvable
    assert all(e.contains(col) for col in cols)


def sympy_rank(vectors, nrows):
    if not vectors:
        return 0
    M = sympy.Matrix(nrows, len(vectors), lambda i, j: sympy.Rational(str(vectors[j].get(i, 0))))
    return M.rank()


@settings(max_examples=60, deadline=None)
@given(matrices(qq_entries, max_cols=6))
def test_qq_against_sympy(data):
    dense_cols, dense_b = data
    nrows = len(dense_b)
    cols = [sparse(c, QQ) for c in dense_cols]
    b = sparse(dense_b, QQ)
    check_structure(cols, b, QQ, lambda vs: sympy_rank(vs, nrows))
    if cols:
        M = sympy.Matrix(nrows, len(cols), lambda i, j: sympy.Rational(str(cols[j].get(i, 0))))
        assert len(kernel_basis(cols, QQ)) == len(M.nullspace())


def brute_rank_f7(vectors, nrows):
    # |span| = 7^rank
    span = set()
    for coeffs in itertools.product(range(7), repeat=len(vectors)):
        span.add(tuple(sum(c * v.get(i, 0) for c, v in zip(coeffs, vectors)) % 7 for i in range(nrows)))
    rank = 0
    while 7 ** rank < len(span):
        rank += 1
    return rank


@settings(max_examples=40, deadline=None)
@given(matrices(f7_entries, max_cols=4))
def test_gf7_against_brute_force(data):
    dense_cols, dense_b = data
    nrows = len(dense_b)
    cols = [sparse(c, F7) for c in dense_cols]
    b = sparse(dense_b, F7)
    check_structure(cols, b, F7, lambda vs: brute_rank_f7(vs, nrows))


def test_axpy_drops_zeros_and_keeps_qq_integral_values_int():
    dst = {0: Fraction(1, 2), 1: 3}
    axpy(dst, Fraction(1, 2), {0: -1, 1: 2, 2: Fraction(2, 3)}, QQ)
    assert dst == {1: 4, 2: Fraction(1, 3)}
    assert type(dst[1]) is int
    assert list(dst) == [1, 2]


def test_reduce_follows_fill_in_to_later_pivots():
    # subtracting the row at pivot 0 brings in key 1, itself a pivot
    e = Eliminator(QQ)
    assert e.insert({0: 1, 1: 1}, "a") is None
    assert e.insert({1: 1}, "b") is None
    assert e.contains({0: 1})
    assert not e.contains({2: 1})
    assert kernel_basis([{0: 1, 1: 1}, {1: 1}, {0: 1}], QQ) == [{2: 1, 0: -1, 1: 1}]


def test_untagged_inserts_keep_no_history():
    e = Eliminator(F7)
    assert e.insert({0: 1, 1: 2}, "a") is None
    assert e.insert({1: 1}) is None
    assert e.insert({0: 3, 1: 5}) == {}
    assert e.rank == 2 and e.contains({0: 1})
    with pytest.raises(ValueError):
        e.insert({2: 1}, "b")
    with pytest.raises(ValueError):
        e.reduce({0: 1}, "c")
