"""Minimal graded resolution of the residue field and the Golod series bound.

poincare_coeffs walks the start of the minimal free resolution of k over a
quotient A = R/I one homological step at a time, on the standard-monomial
basis of A, with one elimination per slice of each step.  At step s, the
columns m * g_t of F_s in a slice, g_t a generator found in a lower degree,
are mapped to F_{s-1}.  Their images span that slice of
(x_1..x_n) * ker d_{s-1}, so the kernel vectors of d_{s-1}, inserted after
them, extend the basis exactly when they are minimal generators of F_s.
By exactness the dependencies among the same images are ker d_s in the
slice, which step s+1 reads as its kernel vectors, so no kernel is computed
twice.  A column whose image is zero is its own dependency and is never
eliminated.

Monomial quotients are sliced by multidegree.  Every multidegree piece of
A is at most one-dimensional, so in slice g the column of generator t is
x^(g - grade_t) * g_t, and a vector of F_s in the slice is keyed by
generator index alone.  Each generator keeps its differential as a scalar
row {t': c}; the image of column t in slice g is that row kept at the t'
for which g - grade_t' is a standard monomial.  Slices are independent, so
a step visits only the slices the multigraded Golod bound allows (below).
Multidegrees are packed into ints, big-endian in a base B above every
exponent the bound reaches, with the total degree as the leading digit:
grades add as ints, and sorted ints are in (degree, exponent tuple) order.
Every other quotient is sliced by total degree; a column's image there is
x_v times the image of the column one degree lower, x_v the first variable
of its monomial, so every degree from the lowest up is visited.  A column
m * g_t of F_s, and an entry m' * g_t' of F_{s-1}, is keyed by the int
t * U + pack(m): pack is the Multidegrees packing in a base above the top
degree the bigraded bound reaches, and U the first place above every
packed monomial.  Within a slice the monomials paired with one generator
share a degree, and packed monomials of one degree sort as their exponent
tuples, so the ints sort as the (t, m) pairs and every pivot is where
tuple keys put it.  The normal form of x_v * m is kept per packed standard
monomial m as key offsets and coefficients, so a shift adds ints to keys.
In both walks the Eliminator returns each QQ dependency as a primitive int
vector: a nonzero multiple of a kernel vector is one, and a generator
scaled by a unit changes no count.  So the kernel vectors and generator
images the steps hand on carry no Fraction; only a normal form with
fractional coefficients brings one into a column's image, and the
Eliminator clears it on insertion.

The images lie in ker d_{s-1}, so a slice with kernel basis kvecs has
exactly len(kvecs) - rank new generators.  Kernel vectors are inserted in
order only until that many have extended the basis; once the number still
needed equals the number left, the rest are taken without elimination.
The generators are those a full insertion would choose.  A negative count
means an image left the kernel and raises InconsistencyError, a free
exactness check in every slice where the previous step recorded the
kernel.  Elsewhere no kernel was recorded, so the count is not checked.

serre_bound expands (1+t)^n / (1 - sum_{i>=1} dim_k H_i(K^A) t^{i+1}), as
the totals of the same expansion kept graded in an auxiliary marker: the
internal degree, or for a monomial quotient the packed multidegree.  One
recurrence (_golod_series) serves both: with D the denominator's sum,
G = 1/(1 - D) has G_d = [d = 0] + sum_{k>=2} D_k G_{d-k}, and G is then
multiplied in place by each numerator factor (1 + u^w t).  Nothing
cancels, since D has no negative coefficient, so every coefficient kept is
a positive integer.  The Golod construction is graded in the same way and
its ranks dominate the minimal resolution's in each grade, so the
graded expansion says where each step's generators can lie.  A
total-degree step searches every degree up to its ceiling, the largest
degree with a nonzero coefficient, and records the kernel up to the next
step's ceiling.  A multidegree step works in slice g only if the bound is
nonzero at (s, g) or (s+1, g): it records the kernel where (s+1, g) is
nonzero, and searches for generators, with the exactness count, where
(s, g) is nonzero, which is where step s-1 recorded it.  Either way every
step that finishes is complete.  What bounds the whole walk is work: the
steps share POINCARE_BUDGET Eliminator inserts, a count rather than a time
so the result is deterministic, and the walk stops where they run out,
keeping every step whose generators were all found.  The bounds read the
Betti table that the quotient owns (`koszul.quotient_betti`), so the Serre
block and the ladder rules before it share one table.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from .errors import InconsistencyError, InputError
from .fields import QQ
from .koszul import quotient_betti
from .linalg import Eliminator, axpy

__all__ = [
    "POINCARE_BUDGET",
    "PoincareData",
    "bigraded_golod_series",
    "Multidegrees",
    "multigraded_golod_series",
    "serre_bound",
    "poincare_coeffs",
]

# Eliminator inserts that one poincare_coeffs call may make, over all its
# steps; every corpus job needs far fewer (at most about 25,000)
POINCARE_BUDGET = 200_000


# ---------------------------------------------------------------------------
# the Golod series: t-truncated, each coefficient a polynomial in a grade
# marker stored as {grade: int} (QQ values, so axpy accumulates them); a
# grade is an int that adds under multiplication


def _golod_series(weights, entries, N: int):
    """Coefficients of prod_v (1 + u^{w_v} t) / (1 - sum_{i>=1} b_{i,a} u^a t^{i+1}),
    one {grade: coefficient} dict per homological degree 0..N.

    `weights` holds the grade of each variable and `entries` maps (i, a)
    to b_{i,a}, a Koszul-homology Betti number of A over R in grade a; the
    i = 0 entry is ignored.  The denominator is 1 - D with D_k the t^k
    coefficient of the sum, zero for k < 2, so G = 1/(1 - D) satisfies
    G_d = [d = 0] + sum_k D_k G_{d-k}.  G is then multiplied in place by
    each numerator factor, G_d += u^w G_{d-1} for d from N down to 1.
    Every entry of the minimal resolution of k over A is bounded by the
    matching coefficient here, with equality exactly for Golod rings.
    """
    denom = [{} for _ in range(N + 1)]
    for (i, a), b in entries.items():
        if 1 <= i < N:
            denom[i + 1][a] = b
    series = [{0: 1}]
    for d in range(1, N + 1):
        coeff = {}
        for k in range(2, d + 1):
            lower = series[d - k]
            for a, b in denom[k].items():
                axpy(coeff, b, {a + j: c for j, c in lower.items()}, QQ)
        series.append(coeff)
    for w in weights:
        for d in range(N, 0, -1):
            axpy(series[d], 1, {j + w: c for j, c in series[d - 1].items()}, QQ)
    return series


def bigraded_golod_series(nvars: int, table, N: int):
    """The Golod series graded by internal degree: every variable has grade
    1, and `table`'s (i, j) entries make the denominator."""
    return _golod_series((1,) * nvars, table.entries, N)


class Multidegrees:
    """Exponent vectors packed into ints, big-endian in `base` with the total
    degree as the leading digit.  While every digit stays below the base,
    packed grades add as the vectors do, and sort in (degree, vector) order."""

    def __init__(self, nvars: int, base: int):
        self.base = base
        self.unit = base ** nvars  # place of the degree digit
        self.weights = tuple(self.unit + base ** (nvars - 1 - v) for v in range(nvars))

    def pack(self, alpha) -> int:
        return sum(map(mul, alpha, self.weights))

    def degree(self, g: int) -> int:
        return g // self.unit

    def unpack(self, g: int) -> tuple:
        g %= self.unit
        out = []
        for _ in self.weights:
            g, e = divmod(g, self.base)
            out.append(e)
        return tuple(reversed(out))


def multigraded_golod_series(table, grades: Multidegrees, N: int):
    """The Golod series graded by packed multidegree, from `table`'s
    multigraded entries.  The base of `grades` must exceed every total
    degree of the bigraded series through t^N, which bounds every exponent
    any term reaches."""
    entries = {(i, grades.pack(a)): b for (i, a), b in table.multigraded.items()}
    return _golod_series(grades.weights, entries, N)


def serre_bound(quot, N: int) -> tuple:
    """First N+1 coefficients of the Golod upper bound for the Poincare
    series of k over quot, exact integers, from quot's own Betti table: the
    totals of its bigraded Golod series."""
    big = bigraded_golod_series(quot.ring.nvars, quotient_betti(quot), N)
    return tuple(sum(d.values()) for d in big)


# ---------------------------------------------------------------------------
# stepwise minimal resolution of k


@dataclass(slots=True)
class _Gen:
    deg: int
    grade: int  # packed multidegree (monomial quotient) or total degree


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


class _StandardSets(dict):
    """degree -> the packed standard monomials of that degree, each set
    built on first use."""

    def __init__(self, quot, grades):
        super().__init__()
        self.quot, self.grades = quot, grades

    def __missing__(self, d):
        out = self[d] = set(map(self.grades.pack, self.quot.std_monomials(d)))
        return out


class _MonomialSlices:
    """The slices of a monomial quotient, keyed by packed multidegree, where
    the multigraded Golod bound allows them."""

    def __init__(self, quot, grades, bound):
        self.grades = grades
        self.bound = bound + [{}]  # step N records no kernel
        self.std = _StandardSets(quot, grades)

    def last(self, step):
        """The last slice in which step searches for generators."""
        return max(self.bound[step], default=-1)

    def label(self, g):
        return self.grades.unpack(g)

    def found(self, t, vec):
        """Generator t of the current step has image vec."""
        self.rows.append(vec)

    def __call__(self, step, prev, gens, kernels):
        """(degree, grade, columns, images, track, check) per slice of step,
        in order: the columns t, and the nonzero images by column."""
        rows = self.rows = [{} for _ in gens]  # d of each generator: F_0's is 0
        here, track = self.bound[step], self.bound[step + 1]
        degree, std = self.grades.degree, self.std
        targets = [(p.grade, p.deg) for p in prev]
        # grade -> (degree, first, last + 1) of the generators of F_step in
        # it; those of one slice are found together, so their indices run
        runs = {gen.grade: (gen.deg, t, t + 1) for t, gen in enumerate(gens)}
        for g in sorted(track.keys() | kernels.keys()):
            j = degree(g)
            cols, images = [], {}
            ok = {}  # grade h of F_{step-1} -> g - h is standard
            for h, (d, first, stop) in runs.items():
                # the run has columns in g when x^(g - h) is standard
                if d >= j or g - h not in std[j - d]:
                    continue
                for t in range(first, stop):
                    cols.append(t)
                    img = {}
                    for u, c in rows[t].items():
                        a, e = targets[u]
                        hit = ok.get(a)
                        if hit is None:
                            hit = ok[a] = g - a in std[j - e]
                        if hit:
                            img[u] = c
                    if img:
                        images[t] = img
            n = len(gens)
            yield j, g, cols, images, g in track, g in here
            if len(gens) > n:
                runs[g] = (j, n, len(gens))


class _Times(dict):
    """x_v times each packed standard monomial m, as the terms
    ((pack(m2) - m, c2), ...) of its normal form, each built on first use:
    a key k = t * U + m moves to k + (pack(m2) - m)."""

    def __init__(self, quot, grades, v):
        super().__init__()
        self.quot, self.grades, self.v = quot, grades, v

    def __missing__(self, m):
        terms = self.quot.mult_var(self.v, self.grades.unpack(m)).items()
        out = self[m] = tuple((self.grades.pack(m2) - m, c2) for m2, c2 in terms)
        return out


def _shift_by_var(vec: dict, times: _Times, U: int, p: int) -> dict:
    """x_v * vec, with times the _Times of x_v, accumulated term by term as
    axpy would, without building a vector per term."""
    out = {}
    get, pop = out.get, out.pop
    for k, c in vec.items():
        for d, c2 in times[k % U]:
            k2 = k + d
            if p:
                s = (get(k2, 0) + c * c2) % p
            else:
                s = get(k2, 0) + c * c2
                if s.__class__ is Fraction and s.denominator == 1:
                    s = s.numerator
            if s:
                out[k2] = s
            else:
                pop(k2, None)
    return out


class _DegreeSlices:
    """The slices of any other quotient, one per total degree, with column
    images shifted up from the degree below.  The column m * g_t, and the
    entry m * g_t of a vector, are keyed by the int t * U + pack(m), U the
    first place above every packed monomial the walk meets."""

    def __init__(self, quot, big):
        self.quot = quot
        # provable ceiling on internal degrees of step-i generators
        self.tops = [max(d, default=-1) for d in big] + [-1]
        # every monomial the walk meets has degree at most the top ceiling
        grades = self.grades = Multidegrees(quot.ring.nvars, max(self.tops) + 1)
        self.U = grades.base * grades.unit
        self.times = [_Times(quot, grades, v) for v in range(quot.ring.nvars)]
        self.splits = {}  # degree -> (m, v, m / x_v) per packed standard monomial m

    def last(self, step):
        return self.tops[step]

    def label(self, g):
        return g

    def found(self, t, vec):
        """Generator t of the current step has image vec: the column 1 * g_t,
        from which the columns one degree up shift."""
        self.images[t * self.U] = vec

    def __call__(self, step, prev, gens, kernels):
        jmax, jnext = self.tops[step], self.tops[step + 1]
        self.images = {}
        for j in range(prev[0].deg + 1 if prev else 1, max(jmax, jnext) + 1):
            self.images, cols = self._columns(gens, self.images, j)
            yield j, j, cols, self.images, j <= jnext, j <= jmax

    def _columns(self, gens, prev_images, j):
        """Images of the degree-j columns m * gen_t with deg gen_t < j, each
        x_v times the image of the degree j-1 column (m / x_v) * gen_t.
        Returns the nonzero images by column, from which the next degree
        shifts, and the columns in order."""
        quot, splits, U, times = self.quot, self.splits, self.U, self.times
        pack, weights = self.grades.pack, self.grades.weights
        p = quot.field.char
        images, cols = {}, []
        for t, gen in enumerate(gens):
            if gen.deg >= j:
                break
            d = j - gen.deg
            if d not in splits:
                splits[d] = []
                for m in quot.std_monomials(d):
                    v = next(i for i, e in enumerate(m) if e)
                    g = pack(m)  # packing is additive: m / x_v packs to g - weights[v]
                    splits[d].append((g, v, g - weights[v]))
            base = t * U
            for m, v, m1 in splits[d]:
                col = base + m
                prev = prev_images.get(base + m1)
                if prev:
                    img = _shift_by_var(prev, times[v], U, p)
                    if img:
                        images[col] = img
                cols.append(col)
        return images, cols


class _BudgetSpent(Exception):
    """POINCARE_BUDGET is used up; poincare_coeffs keeps the finished steps."""


def _serre_check(c, b, step, grade):
    if c > b:
        raise InconsistencyError(
            "Serre bound violated at step %d, grade %s: %d > %d" % (step, grade, c, b)
        )


def poincare_coeffs(quot, N: int) -> PoincareData:
    """Total Betti numbers c_0..c_N of the residue field over quot.

    The graded Golod bound tells each step in which slices its generators
    can lie, so every step is computed completely: a monomial quotient is
    walked by multidegree, keyed by generator, in the slices where the
    multigraded bound is nonzero; any other by total degree up to the
    bigraded ceilings.  The steps share POINCARE_BUDGET Eliminator inserts.
    When these run out during step s, the result keeps the steps whose
    generators were all found: 0..s if only the kernel of d_s (read by step
    s+1) was left, else 0..s-1.  N and the bound are cut to the steps kept.
    The Serre inequality is asserted in every bidegree, and for a monomial
    quotient in every multidegree; a violation raises InconsistencyError
    since it can only come from a computation bug.
    """
    if N < 0:
        raise InputError("negative homological bound")
    field_ = quot.field
    one_c = field_.one
    nvars = quot.ring.nvars
    table = quotient_betti(quot)

    big = bigraded_golod_series(nvars, table, N)
    bound = tuple(sum(d.values()) for d in big)
    if quot.is_monomial:
        grades = Multidegrees(nvars, max(max(d, default=0) for d in big) + 1)
        mbig = multigraded_golod_series(table, grades, N)
        slices = _MonomialSlices(quot, grades, mbig)
    else:
        mbig = None
        slices = _DegreeSlices(quot, big)
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
        """Record step's generators, checked against the graded bounds."""
        for j, c in Counter(gen.deg for gen in gens).items():
            _serre_check(c, big[step].get(j, 0), step, j)
            graded[(step, j)] = c
        if mbig is not None:
            for g, c in Counter(gen.grade for gen in gens).items():
                _serre_check(c, mbig[step].get(g, 0), step, slices.label(g))
        coefficients.append(len(gens))

    gens = [_Gen(0, 0)]  # generators of F_0; F_{-1} has none
    kernels = {}  # slice grade -> kernel vectors of d_{step-1}

    try:
        for step in range(N + 1):
            prev = []
            if step:  # F_0 is given
                prev, gens = gens, []  # generators of F_step, found slice by slice
            new_kernels = {}
            for j, g, cols, images, track, check in slices(step, prev, gens, kernels):
                kvecs = kernels.pop(g, ())
                if not (track or kvecs):
                    continue
                elim = Eliminator(field_)
                deps = []
                for col in cols:
                    img = images.get(col)
                    if img:
                        dep = insert(elim, img, col if track else None)
                        if track and dep is not None:
                            deps.append(dep)
                    elif track:
                        deps.append({col: one_c})
                if deps:
                    new_kernels[g] = deps
                # the columns span (x_1..x_n) ker d_{step-1} in this slice,
                # so the kernel vectors that extend it are minimal
                # generators, exactly len(kvecs) - rank of them
                need = len(kvecs) - elim.rank
                if need < 0 and check:
                    raise InconsistencyError(
                        "resolution of k not exact at step %d, degree %d, grade %s: "
                        "the images have rank %d in a kernel of dimension %d"
                        % (step, j, slices.label(g), elim.rank, len(kvecs))
                    )
                for i, vec in enumerate(kvecs):
                    if need <= 0:
                        break
                    if need == len(kvecs) - i or insert(elim, vec) is None:
                        need -= 1
                        slices.found(len(gens), vec)
                        gens.append(_Gen(j, g))
            kernels = new_kernels
            close(step, gens)
    except _BudgetSpent:
        if g > slices.last(step):  # step's generators are all found; only ker d_step was left
            close(step, gens)

    N = len(coefficients) - 1
    return PoincareData(tuple(coefficients), bound[: N + 1], N, graded)
