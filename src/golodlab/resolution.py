"""Minimal graded resolution of the residue field and the Golod series bound.

poincare_coeffs walks the start of the minimal free resolution of k over a
quotient A = R/I one homological step at a time, on the standard-monomial
basis of A, with one elimination per slice of each step.  At step s and
degree j, the columns m * g_t of F_s coming from generators of degree < j
are mapped to F_{s-1}; each image is one variable times the image of a
degree j-1 column.  These images span the degree-j part of
(x_1..x_n) * ker d_{s-1}, so the kernel vectors of d_{s-1}, inserted after
them, extend the basis exactly when they are minimal generators of F_s.
By exactness the dependencies among the same images are ker d_s in degree
j, which step s+1 reads as its kernel vectors, so no kernel is computed
twice.  A column whose image is zero is its own dependency and is never
eliminated.  Monomial quotients are sliced by multidegree, where every
slice of A is at most one-dimensional, so the linear algebra stays tiny;
other quotients are sliced by total degree.

The images lie in ker d_{s-1}, so a slice with kernel basis kvecs has
exactly len(kvecs) - rank new generators.  Kernel vectors are inserted in
order only until that many have extended the basis; once the number still
needed equals the number left, the rest are taken without elimination.
The generators are those a full insertion would choose.  A negative count
means an image left the kernel and raises InconsistencyError, a free
exactness check in every degree up to the step's ceiling.  Above the
ceiling no kernel was recorded, so the count is not checked there.

serre_bound expands (1+t)^n / (1 - sum_{i>=1} dim_k H_i(K^A) t^{i+1}), as
the totals of the same expansion kept bigraded in an auxiliary
internal-degree variable.  The bigraded expansion also gives
a provable internal-degree ceiling for each homological step of the minimal
resolution of k: the resolution constructed by Golod's process is graded and
its ranks dominate the minimal one in each bidegree.  Each step's degree loop
stops at that ceiling, so every step that finishes is complete.  What bounds
the whole walk is work: the steps share POINCARE_BUDGET Eliminator inserts,
a count rather than a time so the result is deterministic, and the walk
stops where they run out, keeping every step whose generators were all found.
Both read the Betti table that the quotient owns (`koszul.quotient_betti`),
so the Serre block and the ladder rules before it share one table.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from operator import add

from .errors import InconsistencyError, InputError
from .fields import QQ
from .koszul import quotient_betti
from .linalg import Eliminator, axpy

__all__ = [
    "POINCARE_BUDGET",
    "PoincareData",
    "bigraded_golod_series",
    "serre_bound",
    "poincare_coeffs",
]

# Eliminator inserts that one poincare_coeffs call may make, over all its
# steps; every corpus job needs far fewer (at most about 25,000)
POINCARE_BUDGET = 200_000


# ---------------------------------------------------------------------------
# series arithmetic: t-truncated power series whose coefficients are
# polynomials in an internal-degree marker, stored as {j: int} (QQ values,
# so axpy accumulates them)


def _tseries_mul(A, B, N):
    out = [dict() for _ in range(N + 1)]
    for i, a in enumerate(A):
        if i > N or not a:
            continue
        for k, b in enumerate(B):
            if i + k > N:
                break
            if not b:
                continue
            for ja, ca in a.items():
                axpy(out[i + k], ca, {ja + jb: cb for jb, cb in b.items()}, QQ)
    return out


def _tseries_geom(M, N):
    """(1 - M)^{-1} truncated at t^N; M must have no constant t-term."""
    if M and M[0]:
        raise InputError("geometric series needs a denominator with constant term 1")
    out = [dict() for _ in range(N + 1)]
    out[0] = {0: 1}
    for d in range(1, N + 1):
        acc = {}
        for i in range(1, d + 1):
            mi = M[i] if i < len(M) else {}
            if not mi:
                continue
            lower = out[d - i]
            for ja, ca in mi.items():
                axpy(acc, ca, {ja + jb: cb for jb, cb in lower.items()}, QQ)
        out[d] = acc
    return out


def bigraded_golod_series(nvars: int, table, N: int):
    """Coefficients of (1+ut)^n / (1 - sum_{i>=1,j} beta_{ij} u^j t^{i+1}),
    one {internal degree: coefficient} dict per homological degree 0..N.

    `table` is the Koszul-homology Betti table of A over R; its (0, 0) entry
    is ignored.  Every entry of the minimal resolution of k over A is bounded
    by the matching coefficient here, with equality exactly for Golod rings.
    """
    numer = [{i: comb(nvars, i)} for i in range(min(nvars, N) + 1)]
    denom = [dict() for _ in range(N + 1)]
    for (i, j), b in table.entries.items():
        if i >= 1 and i + 1 <= N:
            axpy(denom[i + 1], b, {j: 1}, QQ)
    return _tseries_mul(numer, _tseries_geom(denom, N), N)


def serre_bound(quot, N: int) -> tuple:
    """First N+1 coefficients of the Golod upper bound for the Poincare
    series of k over quot, exact integers, from quot's own Betti table: the
    totals of its bigraded Golod series."""
    big = bigraded_golod_series(quot.ring.nvars, quotient_betti(quot), N)
    return tuple(sum(d.values()) for d in big)


# ---------------------------------------------------------------------------
# stepwise minimal resolution of k


@dataclass
class _Gen:
    deg: int
    grade: object  # exponent tuple (monomial quotient) or total degree


@dataclass(frozen=True)
class PoincareData:
    """Total Betti numbers of k over a quotient, with the Serre-side bound.

    coefficients[i] = rank of the i-th module in the minimal resolution of k,
    bound[i] the matching Golod-series coefficient, for i = 0..N.  `graded`
    records the internal-degree splitting.
    """

    coefficients: tuple
    bound: tuple
    N: int
    graded: dict = field(default=None, repr=False)

    def is_equality(self) -> bool:
        return self.coefficients == self.bound

    def first_gap(self):
        """Smallest i with coefficients[i] < bound[i], None on equality."""
        for i, (c, s) in enumerate(zip(self.coefficients, self.bound)):
            if c != s:
                return i
        return None


def _shift_by_var(quot, vec: dict, v: int) -> dict:
    """x_v * vec, accumulated term by term as axpy would, without building
    a vector per term."""
    out = {}
    get, pop = out.get, out.pop
    mult_var = quot.mult_var
    p = quot.field.char
    for (t, m), c in vec.items():
        for m2, c2 in mult_var(v, m).items():
            k = (t, m2)
            if p:
                s = (get(k, 0) + c * c2) % p
            else:
                s = get(k, 0) + c * c2
                if s.__class__ is Fraction and s.denominator == 1:
                    s = s.numerator
            if s:
                out[k] = s
            else:
                pop(k, None)
    return out


def _column_images(quot, gens, prev_images, j, splits):
    """Images of the degree-j columns m * gen_t with deg gen_t < j.

    Each is x_v times the image of the degree j-1 column (m / x_v) * gen_t,
    x_v the first variable of m.  Returns the nonzero images by column (t, m)
    and, per grade slice, its columns in order.  `prev_images` holds the
    nonzero images of degree j-1, generators included; `splits` caches
    (m, v, m / x_v) for the standard monomials of each degree.
    """
    images, slices = {}, {}
    for t, gen in enumerate(gens):
        if gen.deg >= j:
            break
        d = j - gen.deg
        if d not in splits:
            splits[d] = []
            for m in quot.std_monomials(d):
                v = next(i for i, e in enumerate(m) if e)
                splits[d].append((m, v, m[:v] + (m[v] - 1,) + m[v + 1 :]))
        for m, v, m1 in splits[d]:
            col = (t, m)
            prev = prev_images.get((t, m1))
            if prev:
                img = _shift_by_var(quot, prev, v)
                if img:
                    images[col] = img
            g = tuple(map(add, gen.grade, m)) if quot.is_monomial else j
            slices.setdefault(g, []).append(col)
    return images, slices


class _BudgetSpent(Exception):
    """POINCARE_BUDGET is used up; poincare_coeffs keeps the finished steps."""


def poincare_coeffs(quot, N: int) -> PoincareData:
    """Total Betti numbers c_0..c_N of the residue field over quot.

    The bigraded Golod bound tells each step where its generators must stop,
    so every step is computed completely.  The steps share POINCARE_BUDGET
    Eliminator inserts.  When these run out during step s, the result keeps
    the steps whose generators were all found: 0..s if only the kernel of
    d_s (read by step s+1) was left, else 0..s-1.  N and the bound are cut
    to the steps kept.  The Serre inequality is asserted in every bidegree;
    a violation raises InconsistencyError since it can only come from a
    computation bug.
    """
    if N < 0:
        raise InputError("negative homological bound")
    field_ = quot.field
    one_c = field_.one
    multi = quot.is_monomial
    nvars = quot.ring.nvars

    big = bigraded_golod_series(nvars, quotient_betti(quot), N)
    bound = tuple(sum(d.values()) for d in big)
    # provable ceiling on internal degrees of step-i generators
    tops = [max(d, default=-1) for d in big] + [-1]
    spent = 0

    def insert(elim, vec, tag=None):
        nonlocal spent
        spent += 1
        if spent > POINCARE_BUDGET:
            raise _BudgetSpent
        return elim.insert(vec, tag)

    coefficients = []
    graded = {}

    def close(step, gens):
        """Record step's generators, checked against the bigraded bound."""
        for j, c in Counter(gen.deg for gen in gens).items():
            if c > big[step].get(j, 0):
                raise InconsistencyError(
                    "Serre bound violated at (%d, %d): %d > %d"
                    % (step, j, c, big[step].get(j, 0))
                )
            graded[(step, j)] = c
        coefficients.append(len(gens))

    one = tuple([0] * nvars)  # the monomial 1
    gens = [_Gen(0, one if multi else 0)]  # generators of F_0
    lo = 1  # one above the lowest generator degree of F_{step-1}
    kernels = {}  # degree <= top -> grade -> kernel vectors of d_{step-1}
    splits = {}  # see _column_images

    try:
        for step in range(N + 1):
            jmax, jnext = tops[step], tops[step + 1]
            if step:  # F_0 is given
                gens = []  # generators of F_step, found degree by degree below
            new_kernels, images = {}, {}
            for j in range(lo, max(jmax, jnext) + 1):
                images, slices = _column_images(quot, gens, images, j, splits)
                track = j <= jnext
                found = kernels.pop(j, {})
                for g in sorted(slices.keys() | found.keys()):
                    kvecs = found.get(g, ())
                    if not (track or kvecs):
                        continue
                    elim = Eliminator(field_)
                    deps = []
                    for col in slices.get(g, ()):
                        img = images.get(col)
                        if img:
                            dep = insert(elim, img, col if track else None)
                            if track and dep is not None:
                                deps.append(dep)
                        elif track:
                            deps.append({col: one_c})
                    if deps:
                        new_kernels.setdefault(j, {})[g] = deps
                    # the columns span (x_1..x_n) ker d_{step-1} in this slice,
                    # so the kernel vectors that extend it are minimal
                    # generators, exactly len(kvecs) - rank of them
                    need = len(kvecs) - elim.rank
                    if need < 0 and j <= jmax:
                        raise InconsistencyError(
                            "resolution of k not exact at step %d, degree %d: the "
                            "images have rank %d in a kernel of dimension %d"
                            % (step, j, elim.rank, len(kvecs))
                        )
                    for i, vec in enumerate(kvecs):
                        if need <= 0:
                            break
                        if need == len(kvecs) - i or insert(elim, vec) is None:
                            need -= 1
                            images[(len(gens), one)] = vec
                            gens.append(_Gen(j, g))
            kernels = new_kernels
            close(step, gens)
            lo = gens[0].deg + 1 if gens else 1
    except _BudgetSpent:
        if j > jmax:  # step's generators are all found; only ker d_step was left
            close(step, gens)

    N = len(coefficients) - 1
    return PoincareData(tuple(coefficients), bound[: N + 1], N, graded)
