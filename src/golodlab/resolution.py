"""Minimal graded resolution of the residue field and the Golod series bound.

poincare_coeffs walks the start of the minimal free resolution of k over a
quotient A = R/I one homological step at a time.  Within a step the kernel of
the current differential is computed degree by degree on the standard-monomial
basis of A; kernel elements that are not reachable by multiplying lower-degree
kernel elements with variables are split off as minimal generators of the next
free module.  Monomial quotients are sliced by multidegree, where every slice
of A is at most one-dimensional, so the linear algebra stays tiny; other
quotients are sliced by total degree.

serre_bound expands (1+t)^n / (1 - sum_{i>=1} dim_k H_i(K^A) t^{i+1}).  The
same expansion, kept bigraded in an auxiliary internal-degree variable, gives
a provable internal-degree ceiling for each homological step of the minimal
resolution of k: the resolution constructed by Golod's process is graded and
its ranks dominate the minimal one in each bidegree.  That ceiling both limits
the degree loops and turns the internal-degree cap into a certificate: when
the cap covers the ceiling, the reported coefficients are provably complete.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .errors import CapExceededError, InconsistencyError, InputError
from .fields import QQ
from .koszul import koszul_betti
from .linalg import Eliminator, axpy, kernel_basis
from .rings import mono_deg

__all__ = [
    "PoincareData",
    "golod_series",
    "bigraded_golod_series",
    "serre_bound",
    "poincare_coeffs",
]


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


def golod_series(nvars: int, homology_dims, N: int) -> tuple:
    """Total coefficients of (1+t)^n / (1 - sum_i dim H_i t^{i+1}).

    homology_dims maps i >= 1 to dim_k H_i(K tensor A); missing means zero.
    """
    numer = [{0: comb(nvars, i)} for i in range(min(nvars, N) + 1)]
    denom = [dict() for _ in range(N + 1)]
    for i, b in homology_dims.items():
        if i >= 1 and b and i + 1 <= N:
            axpy(denom[i + 1], b, {0: 1}, QQ)
    series = _tseries_mul(numer, _tseries_geom(denom, N), N)
    return tuple(sum(d.values()) for d in series)


def serre_bound(quot, N: int, betti_table=None) -> tuple:
    """First N+1 coefficients of the Golod upper bound for the Poincare
    series of k over quot, exact integers."""
    if betti_table is None:
        betti_table = koszul_betti(quot)
    dims = {}
    for (i, _), b in betti_table.entries.items():
        if i >= 1:
            dims[i] = dims.get(i, 0) + b
    return golod_series(quot.ring.nvars, dims, N)


# ---------------------------------------------------------------------------
# stepwise minimal resolution of k


@dataclass
class _Gen:
    deg: int
    grade: object  # exponent tuple (monomial quotient) or total degree
    image: dict  # {(index in previous module, std monomial): coefficient}


@dataclass(frozen=True)
class PoincareData:
    """Total Betti numbers of k over a quotient, with the Serre-side bound.

    coefficients[i] = rank of the i-th module in the minimal resolution of k,
    bound[i] the matching Golod-series coefficient.  `graded` records the
    internal-degree splitting.  `certified_complete` is True when the bigraded
    bound vanishes above the cap D for every step, which proves no generator
    was missed; otherwise the run survived the at-cap check only.
    """

    coefficients: tuple
    bound: tuple
    N: int
    D: int
    graded: dict = field(default=None, repr=False)
    certified_complete: bool = True

    def is_equality(self) -> bool:
        return self.coefficients == self.bound

    def first_gap(self):
        """Smallest i with coefficients[i] < bound[i], None on equality."""
        for i, (c, s) in enumerate(zip(self.coefficients, self.bound)):
            if c != s:
                return i
        return None


def _grade_add(g, m, multi: bool):
    if multi:
        return tuple(a + b for a, b in zip(g, m))
    return g + mono_deg(m)


def _columns_by_slice(quot, gens, j, multi: bool):
    """Group the degree-j component basis of a free module by grade slice."""
    slices = {}
    for t, gen in enumerate(gens):
        r = j - gen.deg
        if r < 0:
            continue
        for m in quot.std_monomials(r):
            g = _grade_add(gen.grade, m, multi)
            slices.setdefault(g, []).append((t, m))
    return slices


def _apply_diff(quot, field_, gen: _Gen, m):
    """Image of m * gen under the differential, in previous-module coords."""
    out = {}
    for (s, m1), c in gen.image.items():
        axpy(out, c, {(s, m2): c2 for m2, c2 in quot.mult_mono(m, m1).items()}, field_)
    return out


def _shift_by_var(quot, field_, vec: dict, v: int) -> dict:
    out = {}
    for (t, m), c in vec.items():
        axpy(out, c, {(t, m2): c2 for m2, c2 in quot.mult_var(v, m).items()}, field_)
    return out


def poincare_coeffs(quot, N: int, D: int, betti_table=None) -> PoincareData:
    """Total Betti numbers c_0..c_N of the residue field over quot.

    D caps the internal degree searched for syzygy generators.  The bigraded
    Golod bound tells each step where its generators must stop; when D covers
    that ceiling the result is provably complete.  When it does not, degrees
    are computed up to D, and either a minimal generator appearing at D itself
    or a step whose admissible degree window lies entirely beyond D raises
    CapExceededError rather than silently truncating.  The Serre inequality
    is asserted on every coefficient; a violation raises InconsistencyError
    since it can only come from a computation bug.
    """
    if N < 0:
        raise InputError("negative homological bound")
    if D < 1:
        raise InputError("internal degree cap must be at least 1")
    field_ = quot.field
    multi = quot.is_monomial
    nvars = quot.ring.nvars
    if betti_table is None:
        betti_table = koszul_betti(quot)

    big = bigraded_golod_series(nvars, betti_table, N)
    bound = tuple(sum(d.values()) for d in big)
    # provable ceiling on internal degrees of step-i generators
    tops = [max(d, default=-1) for d in big]
    certified = all(tops[i] <= D for i in range(min(N, len(tops) - 1) + 1))

    zero_grade = tuple([0] * nvars) if multi else 0
    current = [_Gen(0, zero_grade, {})]
    coefficients = [1]
    graded = {(0, 0): 1}

    for step in range(1, N + 1):
        top = tops[step] if step < len(tops) else -1
        jmax = min(D, top)
        kernels = {}  # grade -> list of kernel vectors, this step only
        new_gens = []
        lo = min((g.deg for g in current), default=0) + 1
        for j in range(lo, jmax + 1):
            for g, cols in sorted(_columns_by_slice(quot, current, j, multi).items()):
                images = [_apply_diff(quot, field_, current[t], m) for (t, m) in cols]
                combos = kernel_basis(images, field_)
                if not combos:
                    continue
                kvecs = [{cols[idx]: c for idx, c in combo.items()} for combo in combos]
                kernels[g] = kvecs
                elim = Eliminator(field_)
                tag = 0
                for v in range(nvars):
                    prev = g[:v] + (g[v] - 1,) + g[v + 1 :] if multi else j - 1
                    if multi and prev[v] < 0:
                        continue
                    for k in kernels.get(prev, []):
                        shifted = _shift_by_var(quot, field_, k, v)
                        if shifted:
                            elim.insert(shifted, ("mk", tag))
                            tag += 1
                for vec in kvecs:
                    if elim.insert(dict(vec), ("k", tag)) is None:
                        new_gens.append(_Gen(j, g, vec))
                        graded[(step, j)] = graded.get((step, j), 0) + 1
                    tag += 1
        if top > D and current and lo > jmax:
            raise CapExceededError(
                "internal degree cap D=%d leaves homological step %d entirely "
                "unexplored (generators can appear up to degree %d)" % (D, step, top)
            )
        if jmax == D and top > D and any(g.deg == D for g in new_gens):
            raise CapExceededError(
                "internal degree cap D=%d hit at homological step %d: "
                "syzygy generators appear at the cap itself" % (D, step)
            )
        for (ii, jj) in list(graded):
            if ii == step:
                s_ij = big[step].get(jj, 0)
                if graded[(ii, jj)] > s_ij:
                    raise InconsistencyError(
                        "Serre bound violated at (%d, %d): %d > %d"
                        % (ii, jj, graded[(ii, jj)], s_ij)
                    )
        coefficients.append(len(new_gens))
        current = new_gens

    coefficients = tuple(coefficients)
    for i, (c, s) in enumerate(zip(coefficients, bound)):
        if c > s:
            raise InconsistencyError(
                "Serre bound violated at coefficient %d: %d > %d" % (i, c, s)
            )
    return PoincareData(
        coefficients=coefficients,
        bound=bound,
        N=N,
        D=D,
        graded=graded,
        certified_complete=certified,
    )
