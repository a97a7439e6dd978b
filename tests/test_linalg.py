"""Sparse exact elimination: ranks, kernels, solves and membership against
sympy over QQ and brute force over GF(7), and the Eliminator against the
algorithm it replaced, rows with pivot entry -1, over QQ and GF(7)."""

import itertools
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd

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


# ---------------------------------------------------------------------------
# The Eliminator against the algorithm it replaced: rows scaled to -1 at
# their pivot and plain field arithmetic


def _oracle_axpy(dst, c, src, field):
    for k, v in src.items():
        s = dst.get(k, 0) + c * v
        if field.char:
            s %= field.char
        if s:
            dst[k] = s
        else:
            dst.pop(k, None)
    return dst


class OracleEliminator:
    """Rows scaled to -1 at their pivot: over QQ with all arithmetic in
    Fractions, the QQ Eliminator before rows became content-free int
    vectors; over F_p the F_p Eliminator before rows had pivot entry 1."""

    def __init__(self, field):
        self.field = field
        self.rows = {}
        self.untagged = False

    def reduce(self, vec, tag=None):
        if tag is not None and self.untagged:
            raise ValueError("history after an untagged row")
        F = self.field
        residual = dict(vec) if F.char else {k: Fraction(v) for k, v in vec.items()}
        hist = None if tag is None else {tag: F.one if F.char else Fraction(1)}
        heap = [p for p in residual if p in self.rows]
        heapify(heap)
        while heap:
            p = heappop(heap)
            c = residual.get(p)
            if c is None:
                continue
            row, rhist = self.rows[p]
            for k in row:
                if k not in residual and k in self.rows:
                    heappush(heap, k)
            _oracle_axpy(residual, c, row, F)
            if hist is not None:
                _oracle_axpy(hist, c, rhist, F)
        return residual, hist

    def insert(self, vec, tag=None):
        residual, hist = self.reduce(vec, tag)
        if not residual:
            return {} if hist is None else hist
        pivot = min(residual)
        F = self.field
        c = F.neg(F.inv(residual[pivot]))
        if hist is None:
            self.untagged = True
        else:
            hist = _oracle_axpy({}, c, hist, F)
        self.rows[pivot] = (_oracle_axpy({}, c, residual, F), hist)
        return None


def oracle_kernel(columns, field):
    e = OracleEliminator(field)
    deps = (e.insert(col, j) for j, col in enumerate(columns))
    return [d for d in deps if d is not None]


def oracle_solve(columns, b, field):
    e = OracleEliminator(field)
    for j, col in enumerate(columns):
        e.insert(col, ("col", j))
    residual, hist = e.reduce(b, ("rhs",))
    if residual:
        return None
    return {key[1]: field.neg(c) for key, c in hist.items() if key != ("rhs",)}


def same(got, want):
    """Equal values in the same key order, integral values as ints."""
    if want is None or got is None:
        return got is want
    assert all(type(v) is int or v.denominator != 1 for v in got.values())
    return list(got.items()) == list(want.items())


big_entries = st.one_of(
    st.just(0),
    st.just(0),
    st.integers(-10 ** 6, 10 ** 6),
    st.fractions(-10 ** 6, 10 ** 6, max_denominator=50),
)


@st.composite
def insert_sequences(draw, field, entries, coefs):
    """(vector, tagged) pairs; some vectors are combinations of earlier ones,
    and an untagged vector may come before a tagged one."""
    n = draw(st.integers(1, 6))
    seq = []
    for _ in range(draw(st.integers(1, 8))):
        if seq and draw(st.booleans()):
            vec = {}
            for j in draw(st.lists(st.integers(0, len(seq) - 1), min_size=1, max_size=3)):
                axpy(vec, field.of(draw(coefs)), seq[j][0], field)
        else:
            vec = sparse(draw(st.lists(entries, min_size=n, max_size=n)), field)
        seq.append((vec, draw(st.integers(0, 5)) > 0))
    probe = sparse(draw(st.lists(entries, min_size=n, max_size=n)), field)
    return seq, probe


def check_against_oracle(seq, probe, field):
    e, o = Eliminator(field), OracleEliminator(field)
    for j, (vec, tagged) in enumerate(seq):
        tag = j if tagged else None
        try:
            want = o.insert(vec, tag)
        except ValueError:
            with pytest.raises(ValueError):
                e.insert(vec, tag)
            continue
        assert same(e.insert(vec, tag), want)
        assert e.rank == len(o.rows)
        for t in (None, "probe") if not o.untagged else (None,):
            got_res, got_hist = e.reduce(probe, t)
            want_res, want_hist = o.reduce(probe, t)
            assert same(got_res, want_res) and same(got_hist, want_hist)
        assert e.contains(probe) == (not o.reduce(probe)[0])
    cols = [vec for vec, _ in seq]
    kernel = kernel_basis(cols, field)
    want = oracle_kernel(cols, field)
    assert len(kernel) == len(want) and all(same(k, w) for k, w in zip(kernel, want))
    assert same(solve_columns(cols, range(len(cols)), probe, field), oracle_solve(cols, probe, field))


@settings(max_examples=100, deadline=None)
@given(insert_sequences(QQ, big_entries, st.fractions(-5, 5, max_denominator=6)))
def test_qq_eliminator_matches_fraction_oracle(data):
    check_against_oracle(*data, QQ)


@settings(max_examples=100, deadline=None)
@given(insert_sequences(F7, f7_entries, st.integers(0, 6)))
def test_gf7_eliminator_matches_pivot_minus_one_oracle(data):
    check_against_oracle(*data, F7)


@settings(max_examples=100, deadline=None)
@given(insert_sequences(QQ, big_entries, st.fractions(-5, 5, max_denominator=6)))
def test_integral_dependencies_are_primitive_multiples(data):
    """integral=True changes only the dependencies an insert returns over
    QQ: each is the primitive int vector, positive at its tag, on the line
    of the rational one."""
    seq, _ = data
    e, i = Eliminator(QQ), Eliminator(QQ, integral=True)
    for j, (vec, tagged) in enumerate(seq):
        tag = j if tagged else None
        try:
            want = e.insert(vec, tag)
        except ValueError:
            with pytest.raises(ValueError):
                i.insert(vec, tag)
            continue
        got = i.insert(vec, tag)
        if not want:  # None, or {} without a tag
            assert got == want
            continue
        assert want[tag] == 1 and list(got) == list(want)
        assert all(type(v) is int for v in got.values())
        assert got[tag] > 0 and gcd(*got.values()) == 1
        assert all(got[k] == want[k] * got[tag] for k in want)
