"""Minimal graded resolution of the residue field and the Golod series bound.

poincare_coeffs walks the start of the minimal free resolution of k over a
quotient A = R/I one homological step at a time, on the standard-monomial
basis of A, with one elimination per slice of each step.  At step s, the
columns m * g_t of F_s in a slice, g_t a generator found in a lower degree,
are mapped to F_{s-1}.  Their images span that slice of
(x_1..x_n) * ker d_{s-1}, so the kernel vectors of d_{s-1} that complement
them are minimal generators of F_s.  By exactness the dependencies among
the same images are ker d_s in the slice, which step s+1 reads as its
kernel vectors, so no kernel is computed twice.  A column whose image is
zero is its own dependency and is never eliminated.

Monomial quotients are sliced by multidegree.  Every multidegree piece of
A is at most one-dimensional, so in slice g the column of generator t is
x^(g - grade_t) * g_t, and a vector of F_s in the slice is keyed by
generator index alone.  Each generator keeps its differential as a scalar
row {t': c}; the image of column t in slice g is {-t': c} over the t'
for which g - grade_t' is a standard monomial.  A slice reads only the
generators and kernels in grades below its own, so the walk may stop at
any set of grades closed under taking divisors and is exact there.  It
visits only the box below top, the lcm of the minimal generators, and
there only the slices the multigraded Golod bound allows (below).
Multidegrees are packed into ints, big-endian in a power-of-two base B,
with the total degree as the leading digit: grades add as ints, sorted
ints are in (degree, exponent tuple) order, and a guard bit of B/2 in
each digit tests g <= top with one subtraction and one mask.

The rest of the series comes from its denominator.  For a monomial
quotient, P(x, t) = prod_v (1 + x_v t) / b(x, t), where b is a polynomial
supported on the lcm lattice of the generators, so in the box (Backelin,
C. R. Acad. Sci. Paris 295, 1982; Berglund, J. Algebra 295, 2006).  With
P's box counts through t^s, b_d = num_d - sum_{k>=1} P_k b_{d-k} in the
box gives b through t^s exactly, as the box is closed under divisors; b
keeps its t^1 terms, one per variable in I.  Then P = num / b through t^s
in every multidegree.  Every coefficient of that expansion must be
nonnegative and within the multigraded bound, and its sums by degree
within the bigraded bound; any other outcome raises InconsistencyError.
So no step's cost grows with the grades past the box, and no formula for
b (Berglund's homology of lattice intervals) is needed.  The expansion is
made only when the series leaves the Golod bound.  The multigraded bound
is expanded in the box alone, which is all that slice selection reads.
Where every finished step's box counts equal it, b is the Golod
denominator 1 - D, as D's terms, the Koszul-homology grades, all lie in
the box; P is then the Golod series in every multidegree, and its sums
by degree are the bigraded bound, read as they are.  Only otherwise are
the full multigraded bound, b and P expanded and checked.

Every other quotient is sliced by total degree, and walked in full: its
Poincare series need not even be rational (Anick, Ann. of Math. 115,
1982), so no denominator bounds the work.  A column's image there is
x_v times the image of the column one degree lower, x_v the first variable
of its monomial, so every degree from the lowest up is visited.  A column
m * g_t of F_s is keyed by the int t * U + pack(m), and an entry m' * g_t'
of F_{s-1} in an image by minus that int.  pack follows the Groebner
basis's term order: its digits are the linear components of the order's
key, each offset to be nonnegative, in a base above its range on the
monomials up to the top degree the bigraded bound reaches; U is the first
place above every packed monomial.  So the ints sort as (t, m) in term
order, the order the columns are inserted, and pack is affine: a shift by
x_v adds one constant, and 1 * g_t is keyed t * U + pack(1).  The normal
form of x_v * m is kept per packed standard monomial m as the key offsets
a shift moves keys by.

The walk by total degree skips each column m * g_t with a parent
(m / x_w) * g_t that was dependent on earlier columns one degree down:
x_w times that dependency is m * g_t plus multiples of earlier columns,
since every term of the normal form of x_w * m' lies at or below x_w * m'
in the term order.  So the column is dependent in its own slice, and its
image lies in the span of the earlier images; it gets no image, no insert
and no kernel vector, and its children are skipped in turn.  A slice with
no kernel, which the walk passes over, has only zero images, so all its
columns count as dependent.  The tag of a skipped column is still handed
on, with None for its vector, and it is always a pivot in the next step:
x_w times the parent's dependency lies in (x_1..x_n) * ker d_s, which the
next step's images span, and its largest column is the tag.  A skipped
tag left over as a generator raises InconsistencyError, so a wrong skip
cannot pass silently.  A packing that did not follow the term order would
break the argument: a normal-form term past the column could make the
skip wrong.

Over QQ neither walk does Fraction arithmetic.  The Eliminator returns
each dependency as a primitive int vector: a nonzero multiple of a kernel
vector is one, and a generator scaled by a unit changes no count.  The
walk by total degree has one shift kernel per field.  Over F_p it reduces
mod p.  Over QQ the normal form of x_v * m is kept as integral numerators
over q_m, the lcm of its denominators, and a column's image as S(col)
times itself: a shift meeting the q_m has them all divide Q, their lcm,
so S(col) = S(parent) * Q, with S = 1 on the columns 1 * g_t.  Reducing
by a monic basis with integral coefficients leaves every q_m, and so
every S, at 1.  A positive scale changes neither an image's support nor
its residual's pivot, so the pivots, the skipped columns and the checks
below are those of the images themselves.  Each image is inserted with
its scale, which the Eliminator reads as S(col) times the vector its tag
names, so the dependencies it returns are those among the images
themselves: the kernel vectors and generator images the steps hand on
are the primitive int vectors with a positive tag entry.

The new generators are read off the pivots.  Each kernel vector is kept
with its tag, the column whose insert returned it ({col: 1} for a zero
image).  Columns are inserted in increasing order, so the dependency d_c
lies on c and smaller columns, and the largest column of sum a_c d_c is
the largest tag with a_c != 0 (a skipped column's tag alike, through
its parent's dependency).  Image entries are keyed by negated
columns, so a pivot, the Eliminator's smallest key, is a row's largest
column: a negated tag, since the images lie in ker d_{s-1}.  With the d_c
at the tags that are not pivots the rows form a triangular basis of the
slice's kernel, so those d_c, len(kvecs) - rank of them, are the new
generators.  Where the previous step recorded the kernel, a pivot that
tags no kernel vector (as any rank above its dimension forces) means an
image left the kernel and raises InconsistencyError, a free exactness
check; elsewhere the slice has no kernel vector and no new generator.

serre_bound expands (1+t)^n / (1 - sum_{i>=1} dim_k H_i(K^A) t^{i+1}), as
the totals of the same expansion kept graded in an auxiliary marker: the
internal degree, or for a monomial quotient the packed multidegree.  One
routine (_series) expands num / b for any b with constant term 1, with
terms at t^1 and signs allowed: G = 1/b has G_d = [d = 0] - sum_{k>=1}
b_k G_{d-k}, and G is then multiplied in place by each numerator factor
(1 + u^w t).  It serves the Golod bound, b = 1 - D, the denominator read
off the box counts, and the series expanded from it.  The Golod
construction is graded in the same way and its ranks dominate the
minimal resolution's in each grade, so the graded expansion says where
each step's generators can lie.  A total-degree step searches every
degree up to its ceiling, the largest degree with a nonzero coefficient,
and records the kernel up to the next step's ceiling.  A multidegree step
works in slice g of the box only if the bound is nonzero at (s, g) or
(s+1, g): it records the kernel where (s+1, g) is nonzero, and searches
for generators, with the exactness count, where (s, g) is nonzero, which
is where step s-1 recorded it.  Either way every step that finishes is
complete.  The exactness check runs in every slice searched; the Serre
inequality is checked once, on the finished series: in every bidegree,
and for a monomial quotient that leaves the Golod bound in every
multidegree of the expansion.  Both bound the counts from above.  The
Euler characteristic checks them from below and above at once: P(u, -1)
K(u) = (1 - u)^n through u^N, with K(u) = sum (-1)^i beta_{i,j} u^j read
off the quotient's Betti table, catches a lost kernel vector that no
later slice reaches (_euler_check).  What bounds the whole walk is work:
the steps share POINCARE_BUDGET Eliminator inserts, a count rather than
a time so the result is deterministic, and the walk stops where they run
out, keeping every step whose generators were all found; a monomial
series is read or expanded through those steps.  The bounds read the
Betti table that the quotient owns (`koszul.quotient_betti`), so the
Serre block and the ladder rules before it share one table.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import comb, gcd
from operator import itemgetter, mul

from .errors import InconsistencyError, InputError
from .koszul import quotient_betti
from .linalg import Eliminator, cleared

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
# steps; every corpus job needs far fewer: at most 13,570 on a walk by
# total degree, and at most 65 on a monomial quotient
POINCARE_BUDGET = 200_000


# ---------------------------------------------------------------------------
# series in t, truncated, each coefficient a polynomial in a grade marker
# stored as {grade: int}; a grade is an int that adds under multiplication


def _series(weights, denom, N: int, inside=None):
    """Coefficients of prod_v (1 + u^{w_v} t) / (1 + sum_{k>=1} denom_k t^k)
    through t^N, one {grade: coefficient} dict per power of t.

    `weights` holds the grade of each variable, and denom[k] the t^k
    coefficient of the denominator as {grade: coefficient}; denom[0] is
    taken to be 1 and the entries past the end 0.  G, the inverse of the
    denominator, has G_d = [d = 0] - sum_{k>=1} denom_k G_{d-k}; G is then
    multiplied in place by each numerator factor, G_d += u^w G_{d-1} for d
    from N down to 1.  `inside`, if given, is a test true on a set of
    grades closed under taking divisors, and the terms outside it are
    dropped: a product lies in such a set only if both factors do, so the
    coefficients kept are exact there.
    """

    def add(dst, c, a, src):
        if not c:
            return
        get = dst.get
        if inside is None:
            terms = ((a + j, v) for j, v in src.items())
        else:
            terms = [(g, v) for j, v in src.items() if inside(g := a + j)]
        for g, v in terms:
            s = get(g, 0) + c * v
            if s:
                dst[g] = s
            else:
                del dst[g]

    series = [{0: 1}]
    for d in range(1, N + 1):
        coeff = {}
        for k in range(1, min(d, len(denom) - 1) + 1):
            lower = series[d - k]
            for a, c in denom[k].items():
                add(coeff, -c, a, lower)
        series.append(coeff)
    for w in weights:
        if inside is None or inside(w):
            for d in range(N, 0, -1):
                add(series[d], 1, w, series[d - 1])
    return series


def _golod_series(weights, entries, N: int, inside=None):
    """Coefficients of prod_v (1 + u^{w_v} t) / (1 - sum_{i>=1} b_{i,a} u^a t^{i+1})
    through t^N, one {grade: coefficient} dict per homological degree.

    `entries` maps (i, a) to b_{i,a}, a Koszul-homology Betti number of A
    over R in grade a; the i = 0 entry is ignored.  Every entry of the
    minimal resolution of k over A is bounded by the matching coefficient
    here, with equality exactly for Golod rings.  This denominator has no
    positive coefficient past t^0, so here, unlike in the denominators of
    monomial Poincare series that _MonomialSlices.series expands, nothing
    cancels: every coefficient is a positive integer, and every term met
    has a grade the result has.  `inside` is as in _series.
    """
    denom = [{} for _ in range(N + 1)]
    for (i, a), b in entries.items():
        if 1 <= i < N:
            denom[i + 1][a] = -b
    return _series(weights, denom, N, inside)


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

    def below(self, top):
        """A test g <= top in every exponent, g a packed grade, that does not
        unpack g.  The base must be a power of two, and every exponent
        tested below half of it: a guard bit of half the base, added to
        each exponent digit of top, survives subtracting g exactly where
        g's digit is at most top's, and no digit borrows from the next.
        The degree digit may go negative; the mask drops it."""
        half = self.base >> 1
        guard = sum(half * self.base ** v for v in range(len(self.weights)))
        high = self.pack(top) + guard
        return lambda g: (high - g) & guard == guard


def multigraded_golod_series(table, grades: Multidegrees, N: int, inside=None):
    """The Golod series graded by packed multidegree, from `table`'s
    multigraded entries, or only its terms where `inside` holds, as in
    _series.  The base of `grades` must exceed every exponent any term
    reaches; the top total degree of the bigraded series through t^N
    does."""
    entries = {(i, grades.pack(a)): b for (i, a), b in table.multigraded.items()}
    return _golod_series(grades.weights, entries, N, inside)


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
    """The slices of a monomial quotient, keyed by packed multidegree, in
    the box below the lcm of its generators where the multigraded Golod
    bound allows them."""

    def __init__(self, quot, table, big, N):
        nvars = quot.ring.nvars
        lts = quot.gb.lts
        top = tuple(max((m[v] for m in lts), default=0) for v in range(nvars))
        # each denominator expanded here has its terms in the box, at t^1 or
        # above, so a term of its inverse at t^d has every exponent at most
        # d * max(top), and the numerator adds at most 1; the box test sees
        # sums of two grades in the box, and needs a spare top bit
        reach = max(N, 2) * max(top) + 1
        grades = self.grades = Multidegrees(nvars, 2 << reach.bit_length())
        inside = self.inside = grades.below(top)
        self.table, self.big = table, big
        # the Golod series in the box, which is all that slice selection reads
        self.box = multigraded_golod_series(table, grades, N, inside)
        self.box.append({})  # step N records no kernel
        self.std = _StandardSets(quot, grades)
        self.scale = {}  # the images are inserted as they are

    def last(self, step):
        """The last slice in which step searches for generators."""
        return max(self.box[step], default=-1)

    def label(self, g):
        return self.grades.unpack(g)

    def found(self, t, vec):
        """Generator t of the current step has image vec."""
        self.rows.append(vec)

    def __call__(self, step, prev, gens, kernels):
        """(degree, grade, columns, images, dead, track, check) per slice of
        step, in order: the columns t, and the nonzero images by column;
        no column is skipped, so each dead set starts empty."""
        rows = self.rows = [{} for _ in gens]  # d of each generator: F_0's is 0
        here, track = self.box[step], self.box[step + 1]
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
                            img[-u] = c
                    if img:
                        images[t] = img
            n = len(gens)
            yield j, g, cols, images, set(), g in track, g in here
            if len(gens) > n:
                runs[g] = (j, n, len(gens))

    def series(self, counts):
        """The Poincare series through the steps counted, graded by internal
        degree, from the counts {grade: generators} in the box.  Where every
        step's counts are the Golod series' in the box, the series is the
        Golod series: the denominator b that the counts give there is then
        the Golod denominator 1 - D, whose terms all lie in the box, so P =
        prod_v (1 + u^{w_v} t) / b is the Golod series in every grade, and
        its sums by degree are the bigraded bound.  Otherwise b = prod_v (1
        + u^{w_v} t) / P in the box, then P = prod_v (1 + u^{w_v} t) / b in
        every grade, each coefficient nonnegative and within the multigraded
        bound."""
        N = len(counts) - 1
        if all(c == b for c, b in zip(counts, self.box)):
            return self.big[: N + 1]
        weights, degree, label = self.grades.weights, self.grades.degree, self.label
        mbig = multigraded_golod_series(self.table, self.grades, N)
        series = _series(weights, _series(weights, counts, N, self.inside), N)
        out = []
        for step, coeffs in enumerate(series):
            bound, by_degree = mbig[step], Counter()
            for g, c in coeffs.items():
                if c < 0:
                    raise InconsistencyError(
                        "negative Poincare coefficient at step %d, grade %s: %d"
                        % (step, label(g), c)
                    )
                _serre_check(c, bound.get(g, 0), step, g, label)
                by_degree[degree(g)] += c
            out.append(by_degree)
        return out


class _TermPacking:
    """Monomials of degree at most `top` packed into ints that sort as the
    term order sorts them.  Each digit is one component of the order's key,
    offset to be nonnegative, in a base one above that component's range on
    those monomials.  The components are linear forms, so pack is affine:
    pack(x_v * m) = pack(m) + weights[v], and pack(1) = one.  `unit` is the
    first place above every packed monomial, and `monos` maps each packed
    monomial back to its exponent tuple."""

    def __init__(self, order, nvars, top):
        # a linear key's values at the unit vectors are its coefficients
        units = [order.key(tuple(int(i == v) for i in range(nvars))) for v in range(nvars)]
        weights, one, place = [0] * nvars, 0, 1
        for coeffs in reversed(tuple(zip(*units))):
            lo, hi = top * min(0, *coeffs), top * max(0, *coeffs)
            weights = [w + c * place for w, c in zip(weights, coeffs)]
            one -= lo * place
            place *= hi - lo + 1
        self.weights, self.one, self.unit = weights, one, place
        self.monos = {}

    def pack(self, m) -> int:
        g = self.one + sum(map(mul, m, self.weights))
        self.monos[g] = m
        return g


class _Times(dict):
    """x_v times each packed standard monomial m, as the terms
    ((pack(m2) - m, q * c2), ...) of its normal form scaled by q, the lcm
    of its denominators, so that they are integral; each built on first
    use.  `denominators` maps m to q where q is not 1, which happens only
    over QQ, where a normal form has a fractional coefficient.  An image
    key k = -(t * U + m) moves to k - (pack(m2) - m)."""

    def __init__(self, quot, packing, v):
        super().__init__()
        self.quot, self.packing, self.v = quot, packing, v
        self.denominators = {}

    def __missing__(self, m):
        pack = self.packing.pack
        nf, q = cleared(self.quot.mult_var(self.v, self.packing.monos[m]))
        if q != 1:
            self.denominators[m] = q
        out = self[m] = tuple((pack(m2) - m, c2) for m2, c2 in nf.items())
        return out


def _shift_by_var(vec: dict, times: _Times, U: int, p: int) -> dict:
    """x_v * vec over F_p, vec an image keyed by negated ints and times the
    _Times of x_v, accumulated term by term as axpy would, without a vector
    per term."""
    out = {}
    get, pop = out.get, out.pop
    for k, c in vec.items():
        for d, c2 in times[-k % U]:
            k2 = k - d
            s = (get(k2, 0) + c * c2) % p
            if s:
                out[k2] = s
            else:
                pop(k2, None)
    return out


def _shift_scaled(vec: dict, times: _Times, U: int):
    """(Q * x_v * vec, Q) over QQ, as _shift_by_var: Q is the lcm of the
    denominators of the normal forms met, so the image is integral.  Where
    no normal form has a denominator, as for a monic basis with integral
    coefficients, Q stays 1."""
    out = {}
    get, pop = out.get, out.pop
    den = times.denominators
    Q = 1
    for k, c in vec.items():
        m = -k % U
        terms = times[m]  # sets m's denominator
        if den and (q := den.get(m, 1)) != Q:  # bring c over the common denominator Q
            if Q % q:  # raise Q to lcm(Q, q), and the terms so far with it
                f = q // gcd(Q, q)
                Q *= f
                for k2 in out:
                    out[k2] *= f
            c *= Q // q
        for d, c2 in terms:
            k2 = k - d
            s = get(k2, 0) + c * c2
            if s:
                out[k2] = s
            else:
                pop(k2, None)
    return out, Q


class _DegreeSlices:
    """The slices of any other quotient, one per total degree, with column
    images shifted up from the degree below, by _shift_by_var over F_p and
    by _shift_scaled over QQ.  The column m * g_t is keyed by the int
    t * U + pack(m), and the entry m * g_t of an image by minus it, pack
    the _TermPacking of the basis's term order and U its unit.  `scale`
    holds S(col) of the current slice's images where it is not 1, which
    happens only over QQ (_columns)."""

    def __init__(self, quot, big):
        self.quot = quot
        # provable ceiling on internal degrees of step-i generators
        self.tops = [max(d, default=-1) for d in big] + [-1]
        # every monomial the walk meets has degree at most the top ceiling
        nvars = quot.ring.nvars
        packing = self.packing = _TermPacking(quot.gb.order, nvars, max(self.tops))
        self.U = packing.unit
        self.times = [_Times(quot, packing, v) for v in range(nvars)]
        self.splits = {}  # degree -> (m, times of x_v, parents) per standard monomial m

    def last(self, step):
        return self.tops[step]

    def label(self, g):
        return g

    def series(self, counts):
        return counts

    def found(self, t, vec):
        """Generator t of the current step has image vec: the column 1 * g_t,
        from which the columns one degree up shift."""
        self.images[t * self.U + self.packing.one] = {-k: c for k, c in vec.items()}

    def __call__(self, step, prev, gens, kernels):
        jmax, jnext = self.tops[step], self.tops[step + 1]
        self.images, self.scale, dead = {}, {}, set()
        for j in range(prev[0].deg + 1 if prev else 1, max(jmax, jnext) + 1):
            self.images, self.scale, cols, dead = self._columns(gens, self.images, self.scale, dead, j)
            yield j, j, cols, self.images, dead, j <= jnext, j <= jmax

    def _split(self, d):
        """(pack(m), times of x_v, parents) per standard monomial m of degree
        d, in term order: x_v is the first variable of m, and parents holds
        pack(m) - pack(m / x_w) for each variable x_w of m, x_v's first."""
        out = self.splits.get(d)
        if out is None:
            pack, weights = self.packing.pack, self.packing.weights
            out = []
            for m in self.quot.std_monomials(d):
                vs = [w for w, e in enumerate(m) if e]
                out.append((pack(m), self.times[vs[0]], tuple(weights[w] for w in vs)))
            out.sort(key=itemgetter(0))
            self.splits[d] = out
        return out

    def _columns(self, gens, prev_images, prev_scale, prev_dead, j):
        """Images of the degree-j columns m * gen_t with deg gen_t < j, each
        x_v times the image of the degree j-1 column (m / x_v) * gen_t.
        Over QQ an image is kept integral, as S(col) times the column's
        image, where S(col) = S(parent) * Q with the Q of _shift_scaled,
        and S is 1 on the columns 1 * gen_t; a scale dict holds S where it
        is not 1, and is empty over F_p or for an integral basis.  A
        column with a parent (m / x_w) * gen_t in prev_dead, the columns of
        degree j-1 found dependent on earlier ones, is dependent on earlier
        columns too, and is skipped: it gets no image, and starts the dead
        set of degree j.  Returns the nonzero scaled images by column, from
        which the next degree shifts, their scale dict, the columns in
        order, and that dead set."""
        U, p = self.U, self.quot.field.char
        images, scale, cols, dead = {}, {}, [], set()
        for t, gen in enumerate(gens):
            if gen.deg >= j:
                break
            base = t * U
            for m, times, parents in self._split(j - gen.deg):
                col = base + m
                cols.append(col)
                for w in parents:
                    if col - w in prev_dead:
                        dead.add(col)
                        break
                else:
                    parent = col - parents[0]
                    prev = prev_images.get(parent)
                    if not prev:
                        continue
                    if p:
                        img = _shift_by_var(prev, times, U, p)
                        if img:
                            images[col] = img
                    else:
                        img, Q = _shift_scaled(prev, times, U)
                        if img:
                            images[col] = img
                            S = prev_scale.get(parent, 1) * Q
                            if S != 1:
                                scale[col] = S
        return images, scale, cols, dead


class _BudgetSpent(Exception):
    """POINCARE_BUDGET is used up; poincare_coeffs keeps the finished steps."""


def _serre_check(c, b, step, g, label=None):
    """c, the coefficient at (step, g), is at most its bound b; g is named
    by label(g), computed only for the message."""
    if c > b:
        raise InconsistencyError(
            "Serre bound violated at step %d, grade %s: %d > %d"
            % (step, label(g) if label else g, c, b)
        )


def poincare_coeffs(quot, N: int) -> PoincareData:
    """Total Betti numbers c_0..c_N of the residue field over quot.

    The graded Golod bound tells each step in which slices its generators
    can lie, so every step is computed completely: a monomial quotient is
    walked by multidegree, keyed by generator, in the slices of the box
    below the lcm of its generators where the multigraded bound is nonzero,
    and the rest of its series is the Golod series where those slices meet
    the bound, and is expanded from the denominator they give elsewhere;
    any other quotient is walked by total degree up to the bigraded
    ceilings, skipping the columns a dependent parent one degree down
    decides.  The steps share POINCARE_BUDGET Eliminator inserts.
    When these run out during step s, the result keeps the steps whose
    generators were all found: 0..s if only the kernel of d_s (read by step
    s+1) was left, else 0..s-1.  N and the bound are cut to the steps kept.
    The Serre inequality is asserted in every bidegree, and for a monomial
    quotient in every multidegree, where each coefficient must also be
    nonnegative, and so is the Euler characteristic through u^N; a
    violation raises InconsistencyError since it can only come from a
    computation bug.
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
        slices = _MonomialSlices(quot, table, big, N)
    else:
        slices = _DegreeSlices(quot, big)
    spent = 0  # Eliminator inserts
    counts = []  # per finished step, {grade: generators found}

    def close(gens):
        counts.append(Counter(gen.grade for gen in gens))

    gens = [_Gen(0, 0)]  # generators of F_0; F_{-1} has none
    # slice grade -> {tag: kernel vector of d_{step-1}}, None for a tag
    # whose column was skipped
    kernels = {}

    try:
        for step in range(N + 1):
            prev = []
            if step:  # F_0 is given
                prev, gens = gens, []  # generators of F_step, found slice by slice
            new_kernels = {}
            for j, g, cols, images, dead, track, check in slices(step, prev, gens, kernels):
                # dead holds the columns skipped as dependent; every column
                # found dependent here joins it, for the slice one degree up
                kvecs, scale = kernels.pop(g, {}), slices.scale
                if not (track or kvecs):  # no kernel here, so every image is 0
                    dead.update(cols)
                    continue
                elim = Eliminator(field_)
                deps = {}  # tag -> the dependency its insert returned
                for col in cols:
                    if col in dead:
                        if track:
                            deps[col] = None
                        continue
                    img = images.get(col)
                    if img:
                        spent += 1
                        if spent > POINCARE_BUDGET:
                            raise _BudgetSpent
                        dep = elim.insert(img, col if track else None, scale.get(col, 1))
                    else:
                        dep = {col: one_c}
                    if dep is not None:
                        dead.add(col)
                        if track:
                            deps[col] = dep
                if deps:
                    new_kernels[g] = deps
                # the images lie in ker d_{step-1}, so each pivot is a negated
                # tag; the kernel vectors at the other tags complement them
                if check and any(-p not in kvecs for p in elim.rows):
                    raise InconsistencyError(
                        "resolution of k not exact at step %d, degree %d, grade %s: "
                        "the images have rank %d in a kernel of dimension %d, "
                        "with a pivot that tags no kernel vector"
                        % (step, j, slices.label(g), elim.rank, len(kvecs))
                    )
                for c, vec in kvecs.items():
                    if -c not in elim.rows:
                        if vec is None:
                            raise InconsistencyError(
                                "resolution of k not exact at step %d, degree %d, grade %s: "
                                "a column skipped as dependent in step %d is no pivot"
                                % (step, j, slices.label(g), step - 1)
                            )
                        slices.found(len(gens), vec)
                        gens.append(_Gen(j, g))
            kernels = new_kernels
            close(gens)
    except _BudgetSpent:
        if g > slices.last(step):  # step's generators are all found; only ker d_step was left
            close(gens)

    coefficients, graded = [], {}
    for step, by_degree in enumerate(slices.series(counts)):
        for j, c in sorted(by_degree.items()):
            _serre_check(c, big[step].get(j, 0), step, j)
            graded[(step, j)] = c
        coefficients.append(sum(by_degree.values()))
    N = len(coefficients) - 1
    _euler_check(graded, table, nvars, N)
    return PoincareData(tuple(coefficients), bound[: N + 1], N, graded)


def _euler_check(graded, table, nvars, N):
    """P(u, -1) K(u) = (1 - u)^n through u^N, where P(u, -1) = sum_s (-1)^s
    P_{s,j} u^j is the Euler characteristic of the resolution of k, and
    K(u) = sum (-1)^i beta_{i,j} u^j that of A's resolution over R, so that
    H_A = K / (1 - u)^n and P(u, -1) H_A = 1.  P_{s,j} = 0 for j < s, so
    the steps kept fix P(u, -1) through u^N.  One wrong count P_{s,j} with
    j <= N, such as the shortfall a kernel vector lost in a slice that no
    later image reaches leaves, moves the coefficient of u^j and raises
    InconsistencyError; counts in degrees above N go unchecked."""
    euler = [0] * (N + 1)
    for (s, j), c in graded.items():
        for (i, a), b in table.entries.items():
            if j + a <= N:
                euler[j + a] += (-1) ** (s + i) * c * b
    for j, e in enumerate(euler):
        if e != (-1) ** j * comb(nvars, j):
            raise InconsistencyError(
                "resolution of k fails its Euler characteristic in degree %d: "
                "P(u, -1) K(u) has coefficient %d where (1 - u)^%d has %d"
                % (j, e, nvars, (-1) ** j * comb(nvars, j))
            )
