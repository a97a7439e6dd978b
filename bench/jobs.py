"""Seeded job corpora for the four workloads.

A job is one CLI invocation, given as the argv list passed to
`golodlab.cli.main` (without the trailing `--json`, which the runner adds).

Each random workload starts from a *design*: ideals drawn once by the
generator below with a fixed design seed, so the mix of shapes (number of
variables and generators, degrees, squarefree or not) is the same in every
run.  The run seed then draws the inputs the program sees from that design:
it permutes the variables of every monomial ideal, renames the variables and
rescales and reorders the generators of every graded ideal, samples the
ladder masks, and shuffles the job order.  Drawing every run's ideals
independently made the per-job costs, and so every latency metric, differ by
more than 2x from seed to seed (measured on 30-ideal draws), which no
regression bound can absorb.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from pathlib import Path

DESIGN_SEED = 2202_04260

WORKLOADS = ("monomial-golod", "graded-golod", "minors", "graded-golod-fp")

_VAR_POOL = "abcdfghkmnpqrstuvwxyz"
GRADED_GOLOD = 14  # graded design ideals that also get a golod job


@dataclass(frozen=True)
class Job:
    """One CLI job.  `key` names the input in reports; `gb_check` holds the
    ring and generator text of a graded input whose Groebner basis is
    compared with sympy."""

    key: str
    argv: tuple
    gb_check: tuple = field(default=(), compare=False)


# ---------------------------------------------------------------------------
# generators


def _minimal(monos):
    """Minimal generators of the monomial ideal spanned by `monos`."""
    monos = sorted(set(monos), key=lambda m: (sum(m), m))
    out = []
    for m in monos:
        if not any(all(a <= b for a, b in zip(g, m)) for g in out):
            out.append(m)
    return out


def _random_mono(rng, nvars, deg, squarefree):
    e = [0] * nvars
    if squarefree:
        for v in rng.sample(range(nvars), deg):
            e[v] = 1
    else:
        for _ in range(deg):
            e[rng.randrange(nvars)] += 1
    return tuple(e)


def draw_monomial_ideal(rng, kind, nvars):
    """Minimal generators (exponent tuples) of a random monomial ideal in
    m^2: `kind` is squarefree, equigenerated or mixed (any degree 2-3
    monomials, so usually not squarefree)."""
    while True:
        ngens = rng.randint(2, 4)
        deg = rng.choice((2, 3))
        gens = []
        for _ in range(ngens):
            if kind == "squarefree":
                gens.append(_random_mono(rng, nvars, rng.choice((2, min(3, nvars))), True))
            elif kind == "equigenerated":
                gens.append(_random_mono(rng, nvars, deg, False))
            else:
                gens.append(_random_mono(rng, nvars, rng.choice((2, 3)), False))
        gens = _minimal(gens)
        if len(gens) >= 2:
            return gens


def draw_graded_ideal(rng, nvars):
    """Homogeneous non-monomial ideal: 2-5 generators of degree 2-3, each
    with 1-3 terms and coefficients in +-1..3; generators as lists of
    (coefficient, exponent tuple)."""
    while True:
        gens = []
        for _ in range(rng.randint(2, 4)):
            deg = rng.choice((2, 3))
            terms = {}
            for _ in range(rng.randint(1, 3)):
                terms[_random_mono(rng, nvars, deg, False)] = rng.choice((-3, -2, -1, 1, 2, 3))
            gens.append([(c, e) for e, c in sorted(terms.items(), reverse=True)])
        if any(len(g) > 1 for g in gens):
            return gens


def ladder_masks(rows, cols):
    """Every two-sided ladder mask of the given size with no empty row."""
    out = []
    spans = [(a, b) for a in range(cols) for b in range(a, cols)]
    for choice in itertools.product(spans, repeat=rows):
        if any(s[0] < p[0] or s[1] < p[1] for p, s in zip(choice, choice[1:])):
            continue
        # columns must be contiguous too: a column's rows form an interval
        ok = all(
            _is_interval([r for r, (a, b) in enumerate(choice) if a <= c <= b])
            for c in range(cols)
        )
        if ok:
            out.append("/".join("".join("1" if a <= c <= b else "0" for c in range(cols)) for a, b in choice))
    return out


def _is_interval(xs):
    return not xs or xs == list(range(xs[0], xs[-1] + 1))


# ---------------------------------------------------------------------------
# text rendering


def _mono_text(names, e):
    parts = []
    for nm, k in zip(names, e):
        if k == 1:
            parts.append(nm)
        elif k > 1:
            parts.append("%s^%d" % (nm, k))
    return "*".join(parts)


def _poly_text(names, terms):
    text = ""
    for c, e in terms:
        body = _mono_text(names, e)
        if abs(c) != 1:
            body = "%d*%s" % (abs(c), body)
        if text:
            text += (" - " if c < 0 else " + ") + body
        else:
            text = ("-" if c < 0 else "") + body
    return text


def _ideal_text(field_name, names, gens):
    return "ring: %s[%s]\nideal: %s" % (field_name, ",".join(names), ", ".join(gens))


# ---------------------------------------------------------------------------
# designs (fixed) and their seeded instances


def _monomial_design():
    rng = random.Random(DESIGN_SEED)
    kinds = ("squarefree", "equigenerated", "mixed")
    return [(kinds[i % 3], draw_monomial_ideal(rng, kinds[i % 3], 3)) for i in range(38)]


def _graded_design():
    rng = random.Random(DESIGN_SEED + 1)
    return [draw_graded_ideal(rng, 3) for _ in range(24)]


def _fixture(root, name):
    return str(Path(root) / "fixtures" / name)


def monomial_golod(rng, root):
    # (a, b)^2 for two of the variables: the MonomialPower rule
    a, b = rng.sample("xyz", 2)
    square = "ring: QQ[x,y,z]\nideal: %s^2, %s*%s, %s^2" % (a, a, b, b)
    jobs = [
        Job("massey:gorenstein3_initial", ("massey", "--ideal", _fixture(root, "gorenstein3_initial.txt"))),
        Job("golod:square", ("golod", "--ideal", square)),
    ]
    for i, (kind, gens) in enumerate(_monomial_design()):
        perm = rng.sample(range(3), 3)
        moved = [tuple(e[perm[v]] for v in range(3)) for e in gens]
        rng.shuffle(moved)
        text = _ideal_text("QQ", "xyz", [_mono_text("xyz", e) for e in moved])
        jobs.append(Job("golod:%s%d" % (kind[:3], i), ("golod", "--ideal", text)))
    return jobs


def _graded(rng, root, field_name):
    with open(_fixture(root, "gorenstein3.txt")) as fh:
        g3 = fh.read().replace("ring: QQ[", "ring: %s[" % field_name)
    jobs = [
        Job("golod:gorenstein3", ("golod", "--ideal", g3)),
        Job("fiber-inv:gorenstein3", ("fiber-inv", "--ideal", g3)),
    ]
    for i, gens in enumerate(_graded_design()):
        names = rng.sample(_VAR_POOL, 3)
        polys = []
        for terms in gens:
            scale = rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))
            terms = [(c * scale, e) for c, e in terms]
            rng.shuffle(terms)
            polys.append(_poly_text(names, terms))
        rng.shuffle(polys)
        check = ("%s[%s]" % (field_name, ",".join(names)), tuple(polys))
        text = _ideal_text(field_name, names, polys)
        # golod on the first GRADED_GOLOD ideals, fiber-inv on all: with 15
        # golod and 25 fiber-inv jobs the median falls among the fiber-inv
        # jobs, not on the jump between the two commands
        for cmd in ("golod", "fiber-inv")[0 if i < GRADED_GOLOD else 1 :]:
            jobs.append(Job("%s:g%d" % (cmd, i), (cmd, "--ideal", text), gb_check=check))
    return jobs


def graded_golod(rng, root):
    return _graded(rng, root, "QQ")


def graded_golod_fp(rng, root):
    return _graded(rng, root, "F32003")


# generic shapes with t: the baseline 2x3, 2x4, 3x4 and 110/111 jobs plus
# the other desk-bounded shapes whose jobs fit the run window
_MINORS_FIXED = (
    ("--shape", "2x2", 3), ("--shape", "2x3", 1), ("--shape", "2x3", 2),
    ("--shape", "2x3", 3), ("--shape", "2x4", 2), ("--shape", "3x3", 2),
    ("--shape", "3x3", 3), ("--shape", "3x4", 2), ("--mask", "110/111", 2),
)


def maximal_minors(mask):
    """How many maximal minors of the generic matrix on `mask` are nonzero:
    column sets whose cells admit a perfect matching of the rows."""
    rows = mask.split("/")
    count = 0
    for cols in itertools.combinations(range(len(rows[0])), len(rows)):
        if any(
            all(rows[r][c] == "1" for r, c in enumerate(perm))
            for perm in itertools.permutations(cols)
        ):
            count += 1
    return count


def minors(rng, root):
    jobs = [
        Job("minors:%s:t%d" % (v, t), ("minors", flag, v, "--t", str(t)))
        for flag, v, t in _MINORS_FIXED
    ]
    # Ladder masks are sampled by stratum, because a job's cost is set by
    # its number of nonzero minors and t: 3x4 ladders with all four minors
    # take 0.3-0.4 s at t=2 and 15-45 ms at t=1, the rest under 40 ms.
    # 2-row ladders wider than 3 columns are left out: several overrun any
    # per-job budget that fits a run (see README).
    pool = [m for rows, cols in ((2, 3), (3, 3), (3, 4)) for m in ladder_masks(rows, cols)]
    full = [m for m in pool if maximal_minors(m) == 4]
    fixed = {v for _, v, _ in _MINORS_FIXED}
    some = [m for m in pool if 0 < maximal_minors(m) < 4 and m not in fixed]
    # The stratum sizes keep the median and the p75 inside a stratum, away
    # from the jump between the cheap and the expensive jobs.
    picks = [(m, 2) for m in rng.sample(full, 11)]
    picks += [(m, 1) for m in rng.sample(full, 14)]
    picks += [(m, rng.choice((1, 2))) for m in rng.sample(some, 6)]
    for mask, t in picks:
        jobs.append(Job("minors:%s:t%d" % (mask, t), ("minors", "--mask", mask, "--t", str(t))))
    return jobs


_BUILDERS = {
    "monomial-golod": monomial_golod,
    "graded-golod": graded_golod,
    "minors": minors,
    "graded-golod-fp": graded_golod_fp,
}


def build(workload, seed, root):
    """The jobs of one run, in the order they are sent."""
    rng = random.Random("%s:%d" % (workload, seed))
    jobs = _BUILDERS[workload](rng, root)
    rng.shuffle(jobs)
    return jobs


WARMUP = Job("warmup", ("golod", "--ideal", "x^2,y^2"))
