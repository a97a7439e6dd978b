"""Exact sparse linear algebra over QQ or F_p.

Vectors are dicts mapping an arbitrary hashable, orderable index to a nonzero
field element, so strand bases (wedge set, monomial) can be used directly
without integer reindexing.  `axpy` is the one sparse accumulate kernel:
every "add a multiple of one vector into another, dropping zeros" in the
package goes through it, except in `resolution`, which inlines it in its
two shift kernels, one per field, and in `_series`'s inner `add`.

The Eliminator keeps its rows in echelon form with combination tracking.
`insert` is its one operation: inserting a vector either extends the basis
or returns the dependency, which is how kernels and linear solves fall out.
Each row is stored at its pivot, the row's smallest index, and a new row is
never used to rewrite the older ones.  One fraction-free reduction serves
both fields.  It eliminates pivots in ascending order from a heap:
subtracting a row can only bring in larger indices, and any of those that
is itself a pivot is pushed and eliminated in turn.  A pivot step with
residual entry c and row entry r is residual = a*residual - b*row.  Over
F_p every row has pivot entry 1, so a = 1 and b = c.  Over QQ a row and its
history are int vectors of content 1 with a positive pivot entry; the
input's denominators are cleared once, by their lcm s, and each step
takes g = gcd(c, r), a = r/g and b = c/g.  `insert` may read its input as
a positive int `scale` times the vector its tag names, as the resolution
of k does for an image it keeps integral; the history then starts at
{tag: s * scale}, and every dependency is one among the named vectors.
A vector none of whose indices is a pivot is its own residual: `insert`
stores it, so scaled, as a row at its smallest index with that history,
without the heap.  The one step that depends on the field is how
`insert` scales a new row: by the inverse of its pivot entry over F_p,
by its content and sign over QQ.

A dependency has one form: over QQ the primitive int vector with a
positive tag entry, over F_p the vector with tag entry 1.  Callers that
need only the line it spans, as the resolution of k does, take it as it
is; that walk inserts only int vectors, so no Fraction enters or leaves
it.  `kernel_basis` divides each dependency by its tag entry, and
`solve_columns` inserts b under a tag of its own and divides by minus
that entry; these two, which serve Koszul homology and the Massey solves,
are where Fractions leave the Eliminator.  Fractions still enter it from
the Koszul strands, whose columns hold normal forms as they are: through
`kernel_basis`, `solve_columns`, `rank_of` and the inserts of
`KoszulComplex.homology`.  Once the vectors that extend the basis are
fixed, the line of each dependency is unique, so results are
deterministic for a fixed insertion order and the same for any row
scaling.
"""
from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm


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
        # pivot index -> (row, hist); over F_p row[pivot] == 1, over QQ the
        # row and hist are int vectors with content 1 and row[pivot] > 0
        self.rows = {}
        self._untagged = False  # some row carries no history

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, residual, hist):
        """Fraction-free reduction in place: afterwards residual is s * (its
        input reduced), zero at every pivot, and hist, unless None, is s *
        (its input plus the history of the rows subtracted), where s > 0 is
        the product of the steps' scalings; over F_p s = 1."""
        F = self.field
        qq = not F.char
        rows = self.rows
        heap = [p for p in residual if p in rows]
        heapify(heap)
        while heap:
            p = heappop(heap)
            c = residual.get(p)
            if c is None:  # already eliminated
                continue
            row, rhist = rows[p]
            for k in row:
                if k not in residual and k in rows:
                    heappush(heap, k)
            # residual = a*residual - b*row clears p: over F_p a = 1 and
            # b = c; over QQ a = r/g > 0 and b = c/g with g = gcd(c, r)
            if qq:
                r = row[p]
                g = gcd(c, r)
                a = r // g
                if a != 1:
                    for k in residual:
                        residual[k] *= a
                    if hist is not None:
                        for k in hist:
                            hist[k] *= a
                c //= g
            axpy(residual, -c, row, F)
            if hist is not None:
                axpy(hist, -c, rhist, F)

    def insert(self, vec: dict, tag=None, scale=1):
        """Insert a vector.  Returns None if it extended the basis, else the
        dependency dict (tag -> coefficient, summing to the zero vector):
        over QQ the primitive int vector with a positive entry at tag, over
        F_p the one with entry 1 at tag.

        `vec` is read as `scale` times the vector its tag names, scale a
        positive int, so the dependencies are those among the named
        vectors; over F_p scale must be 1.  Without a tag no history is
        kept: a dependent vector returns {}, and a row it adds carries none,
        so no tagged vector may follow it."""
        if tag is not None and self._untagged:
            raise ValueError("history asked after an untagged vector extended the basis")
        F = self.field
        p = F.char
        # over QQ the denominators are cleared by their lcm s, so residual
        # is s * scale times the vector the tag names
        residual, s = (dict(vec), 1) if p else cleared(vec)
        hist = None if tag is None else {tag: s * scale}
        if not self.rows.keys().isdisjoint(residual):
            self._reduce(residual, hist)
        if not residual:
            if hist is None:
                return {}
            if p:  # hist[tag] == 1
                return hist
            g = gcd(*hist.values())  # hist[tag] > 0
            return hist if g == 1 else {k: v // g for k, v in hist.items()}
        pivot = min(residual)
        if p:  # pivot entry 1
            c = F.inv(residual[pivot])
            row = {k: v * c % p for k, v in residual.items()}
            if hist is not None:
                hist = {k: v * c % p for k, v in hist.items()}
        else:  # content 1, positive pivot entry
            g = gcd(*residual.values(), *(hist.values() if hist is not None else ()))
            if residual[pivot] < 0:
                g = -g
            row = residual if g == 1 else {k: v // g for k, v in residual.items()}
            if hist is not None and g != 1:
                hist = {k: v // g for k, v in hist.items()}
        if hist is None:
            self._untagged = True
        self.rows[pivot] = (row, hist)
        return None


def cleared(vec: dict):
    """(s * vec, s) over QQ: a new int dict, s the lcm of vec's denominators."""
    s = 1
    for v in vec.values():
        if v.__class__ is Fraction:
            s = lcm(s, v.denominator)
    if s == 1:
        return dict(vec), 1
    return {k: v.numerator * (s // v.denominator) for k, v in vec.items()}, s


def _unscale(vec: dict, s: int) -> dict:
    """vec / s over QQ, integral values kept as ints."""
    if s == 1:
        return vec
    out = {}
    for k, v in vec.items():
        q, rem = divmod(v, s)
        out[k] = Fraction(v, s) if rem else q
    return out


def rank_of(vectors, field) -> int:
    e = Eliminator(field)
    for v in vectors:
        e.insert(v)
    return e.rank


def kernel_basis(columns, field):
    """Kernel of the map sending basis vector j to columns[j].

    Returns combination dicts {j: coef}, each with coefficient 1 at its
    dependent column j; each vector is supported on the earliest possible
    column prefix (free coordinates are zero), which is the deterministic
    choice used everywhere downstream.
    """
    e = Eliminator(field)
    out = []
    for j, col in enumerate(columns):
        dep = e.insert(col, j)
        if dep is not None:
            out.append(_unscale(dep, dep[j]))
    return out


def solve_columns(columns, b, field):
    """Solve sum_j x_j * columns[j] = b.  Returns {j: coef} with free
    coordinates zero, or None if inconsistent."""
    e = Eliminator(field)
    for j, col in enumerate(columns):
        e.insert(col, j)
    rhs = len(columns)
    dep = e.insert(b, rhs)
    if dep is None:
        return None
    s = dep.pop(rhs)
    return _unscale({j: field.neg(c) for j, c in dep.items()}, s)
