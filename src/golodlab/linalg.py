"""Exact sparse linear algebra over QQ or F_p.

Vectors are dicts mapping an arbitrary hashable, orderable index to a nonzero
field element, so strand bases (wedge set, monomial) can be used directly
without integer reindexing.  `axpy` is the one sparse accumulate kernel:
every "add a multiple of one vector into another, dropping zeros" in the
package goes through it.

The Eliminator keeps a fully reduced (RREF) row set with combination
tracking: inserting a vector either extends the basis or returns the
dependency, which is how kernels and linear solves fall out.  Because every
stored row is zero at every other row's pivot, eliminating one pivot from a
vector never changes its entry at another pivot, so reduction is a single
ascending pass over the pivots the vector starts with.  Reduction against an
RREF basis is canonical, so results are deterministic for a fixed insertion
order.
"""
from __future__ import annotations

from fractions import Fraction


def axpy(dst: dict, c, src: dict, field) -> dict:
    """dst += c * src in place, dropping zeros; returns dst.

    Keys of src are visited in order, so dst's insertion order is that of
    adding src's terms one at a time.  Over QQ integral results are kept as
    ints, as Field does."""
    if not c:
        return dst
    get, pop = dst.get, dst.pop
    p = field.char
    if p:
        for k, v in src.items():
            s = (get(k, 0) + c * v) % p
            if s:
                dst[k] = s
            else:
                pop(k, None)
    else:
        for k, v in src.items():
            s = get(k, 0) + c * v
            if s.__class__ is Fraction and s.denominator == 1:
                s = s.numerator
            if s:
                dst[k] = s
            else:
                pop(k, None)
    return dst


class Eliminator:
    def __init__(self, field):
        self.field = field
        self.rows = {}  # pivot index -> (row dict, hist dict)
        self.n_inserted = 0

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict, tag=None):
        """Return (residual, hist): residual = vec reduced mod the row space,
        hist expresses residual as tag + combination of previously inserted
        tags (hist maps tag -> coefficient)."""
        F = self.field
        rows = self.rows
        residual = dict(vec)
        hist = {} if tag is None else {tag: F.one}
        for p in sorted(p for p in vec if p in rows):
            c = F.neg(residual[p])
            row, rhist = rows[p]
            axpy(residual, c, row, F)
            axpy(hist, c, rhist, F)
        return residual, hist

    def insert(self, vec: dict, tag):
        """Insert a vector. Returns None if it extended the basis, else the
        dependency dict (tag -> coefficient, summing to the zero vector)."""
        F = self.field
        residual, hist = self.reduce(vec, tag)
        self.n_inserted += 1
        if not residual:
            return hist
        pivot = min(residual)
        c = F.inv(residual[pivot])
        row = axpy({}, c, residual, F)
        rhist = axpy({}, c, hist, F)
        # back-substitute: keep the stored rows fully reduced
        for p, (r, h) in self.rows.items():
            if pivot in r:
                d = F.neg(r[pivot])
                axpy(r, d, row, F)
                axpy(h, d, rhist, F)
        self.rows[pivot] = (row, rhist)
        return None

    def contains(self, vec: dict) -> bool:
        residual, _ = self.reduce(vec)
        return not residual


def rank_of(vectors, field) -> int:
    e = Eliminator(field)
    for i, v in enumerate(vectors):
        e.insert(v, i)
    return e.rank


def kernel_basis(columns, field):
    """Kernel of the map sending basis vector j to columns[j].

    Returns combination dicts {j: coef}; each vector is supported on the
    earliest possible column prefix (free coordinates are zero), which is the
    deterministic choice used everywhere downstream.
    """
    e = Eliminator(field)
    out = []
    for j, col in enumerate(columns):
        dep = e.insert(col, j)
        if dep is not None:
            out.append(dep)
    return out


def solve_columns(columns, tags, b, field):
    """Solve sum_j x_j * columns[j] = b.  Returns {tag: coef} with free
    coordinates zero, or None if inconsistent."""
    e = Eliminator(field)
    for col, tag in zip(columns, tags):
        e.insert(col, ("col", tag))
    residual, hist = e.reduce(b, ("rhs",))
    if residual:
        return None
    out = {}
    for key, c in hist.items():
        if key == ("rhs",):
            continue
        v = field.neg(c)
        if v:
            out[key[1]] = v
    return out

