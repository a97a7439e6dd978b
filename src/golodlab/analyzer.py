"""Golod certificates: the decision pipeline over the Koszul machinery.

golod_certificate runs a fixed rule ladder on a homogeneous proper ideal
given with a term order, the proof rules 2-6 (_proof) before rule 1:

  1. a nonzero homology product or nonzero Massey product (found while
     attempting a trivial Massey operation on R/I; by the singleton lemma
     the first unsolvable tuple exhibits a genuinely nonzero product)
     -> NotGolod;
  2. rainbow monomial ideal with linear resolution -> GolodProven, carrying
     a fully verified Massey table on the valid tuples;
  3. a recognizable power J^t, t >= 2, of a monomial ideal -> GolodProven;
  4. fiber invariant Betti numbers -> the Groebner degeneration carries
     Golodness from the initial ideal: rules 2 and 6 recurse on in(I), and
     a proof there is wrapped as the inner certificate;
  5. non-squarefree monomial ideals recurse the same way on the
     polarization, whose construction is checked generator by generator
     and whose regular-sequence hypothesis is certified by equal Betti
     tables of R/I and the polarized quotient;
  6. degree vanishing, tried once rules 2-5 miss: no target (sum i_k +
     p - 2, sum of grades) of a p-tuple of classes of H_{>=1} has homology,
     for any p -> GolodProven(DegreeVanishing) (Golod 1962; every linear
     resolution passes, Herzog-Reiner-Welker 1999).  The grading is the
     multidegree when the Betti table has one (every monomial quotient),
     the internal degree otherwise; on in(I) inside rule 4 it is in(I)'s
     multidegree read as a weight of the degeneration (degree_vanishing).
     The search prunes partial sums past the top homological degree or not
     below the top grade; the evidence names the grading and the largest
     p tested;
  7. otherwise a strict gap in the Serre block -> NotGolod(SerreGap), or
     GolodUpTo(N): trivial products, a trivial Massey operation through
     p_max (or through the last length the tuple cap let the search
     finish), and Serre-bound equality through t^N, as evidence only.

NotGolod comes only from R/I's own direct search or from a Serre gap; the
transfers carry proofs of Golodness only.

Every certificate carries the Poincare/Serre coefficient block, as far as
its work budget reaches, and the Serre inequality is asserted on it;
equality through the exponent where a NotGolod witness forces a gap, or a
proven Golod rule combined with a strict gap, raises InconsistencyError
since only an implementation fault can produce either.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Optional

from .betti import BettiTable, has_linear_resolution
from .errors import CapExceededError, InconsistencyError, InputError
from .groebner import GroebnerBasis
from .koszul import STRAND_BUDGET, quotient_betti
from .massey import TUPLE_CAP, MasseyTable, build_rainbow_table, build_trivial_table
from .monomial import MonomialIdeal, detect_rainbow, polarize
from .orders import lex
from .resolution import POINCARE_BUDGET, poincare_coeffs

__all__ = [
    "AnalyzerConfig",
    "FiberInvariantResult",
    "fiber_invariant",
    "recognize_monomial_power",
    "degree_vanishing",
    "GolodCertificate",
    "golod_certificate",
]


@dataclass(frozen=True)
class AnalyzerConfig:
    """Caps for the certificate pipeline.

    N is the length of the Poincare/Serre block, which stops short of it
    when the resolution of k uses up resolution.POINCARE_BUDGET.
    with_serre turns off the Poincare block; the minors battery
    (determinantal.certificate_config) runs without it.
    p_max is the longest Massey tuple searched; the direct search stops
    short of it once it would visit more than massey.TUPLE_CAP candidate
    tuples, and its evidence then reports the last length it finished.  The tuple cap,
    the Koszul strand budget and the Poincare work budget are fixed
    (massey.TUPLE_CAP, koszul.STRAND_BUDGET, resolution.POINCARE_BUDGET)
    and reported with the rest.
    """

    N: int = 8
    p_max: int = 4
    with_serre: bool = True

    def to_json(self) -> dict:
        return {
            "N": self.N,
            "p_max": self.p_max,
            "poincare_budget": POINCARE_BUDGET,
            "tuple_cap": TUPLE_CAP,
            "strand_budget": STRAND_BUDGET,
        }


# ---------------------------------------------------------------------------
# fiber invariance


@dataclass(frozen=True)
class FiberInvariantResult:
    """Outcome of the Betti comparison between R/I and R/in(I).

    fast_path carries the theorem that settled the question without the
    entrywise comparison; None means both tables were computed and compared.
    """

    invariant: bool
    fast_path: Optional[str] = None


def fiber_invariant(gb: GroebnerBasis):
    """Does beta_{ij}(R/I) = beta_{ij}(R/in(I)) hold entrywise?

    R/I is built first, so an inhomogeneous ideal is rejected there.  Fast
    paths, in order: monomial ideals are their own initial ideal; an
    initial ideal with linear resolution (one generator degree, linear
    syzygies) forbids consecutive cancellations.  Otherwise the two tables
    are compared exactly.  Both are the tables that gb's quotients own, so
    later rules reuse them.  The second path covers every d-linear ideal
    whose initial ideal is squarefree: such an in(I) has the regularity of
    I (Conca-Varbaro, Invent. Math. 221, 2020), so it is d-linear too.
    """
    quot = gb.quotient()
    if gb.is_monomial:
        return FiberInvariantResult(True, fast_path="monomial ideal equals its initial ideal")
    binit = quotient_betti(gb.initial_quotient())
    if has_linear_resolution(binit):
        return FiberInvariantResult(
            True,
            fast_path="initial ideal has linear resolution, so no consecutive "
            "cancellation can occur",
        )
    return FiberInvariantResult(quotient_betti(quot) == binit)


# ---------------------------------------------------------------------------
# power recognition


def recognize_monomial_power(I: MonomialIdeal):
    """(J, t) with J^t = I and t >= 2 maximal, or None.

    Candidate roots are t-th roots of the generators that are componentwise
    t-th powers; for an equigenerated root ideal every minimal generator u of
    J keeps u^t among the minimal generators of J^t, so the candidate set
    contains J and the final equality check is decisive.
    """
    if not I.gens:
        return None
    for t in range(max(I.gen_degrees()), 1, -1):
        roots = [
            tuple(e // t for e in g) for g in I.gens if all(e % t == 0 for e in g)
        ]
        if not roots:
            continue
        J = MonomialIdeal.from_monos(I.ring, roots)
        if J.power(t) == I:
            return J, t
    return None


# ---------------------------------------------------------------------------
# degree vanishing


def degree_vanishing(table: BettiTable, order=None):
    """(grading, largest p tested) when no Massey equation can have homology
    at its target, else None.  Without order, table is R/I's own Betti
    table, and the answer proves R/I Golod; with order, table is R/in(I)'s
    for a fiber-invariant I with initial ideal in(I) under order, and the
    answer proves R/I Golod through the degeneration.

    Koszul homology H_i is supported where table is, so a product or Massey
    product of classes of bidegrees (i_k, a_k), k = 1..p, lies in bidegree
    (sum i_k + p - 2, sum a_k).  When no such target of a p-tuple from the
    support of H_{>=1} has homology, every cycle the trivial Massey
    operation must bound is a cycle in a zero homology group, for every p,
    so the ring is Golod (Golod 1962).

    Through the degeneration.  Let w be a weight that sorts the monomials of
    degree at most the table's top degree as order does, so in_w(I) =
    in(I).  Equal Betti tables of R/I and R/in(I) make the Koszul homology
    of the family R[t]/I~ (t of weight 1, I~ homogenized by w) a free
    k[t]-module, with a basis in the tridegrees (i, deg a, w.a) of R/in(I)'s
    classes; its fiber at t = 1 is R/I's, and at t = 0 R/in(I)'s.  The family
    has homology in tridegree (h, d, w.c) exactly when R/in(I) has a class
    (h, b) with deg b = d and w.b <= w.c, that is b <= c in order.  When no
    target (h, c) has such a class, a trivial Massey operation exists on
    the family, and setting t = 1 gives one on R/I.  A target that merely
    misses in(I)'s multidegrees proves nothing for R/I: products of R/I
    that vanish at t = 0 can be t times a class.

    A class is read as (homological degree, grade, weight): without order
    the grade is its multidegree, or internal degree, and the weight ();
    with order the grade is the internal degree and the weight order.key of
    the multidegree.  A target has homology when a class of its homological
    degree and grade weighs at most as much.  The partial sums (sum i_k + k
    - 1, sum of grades, sum of weights) of k-tuples grow one length at a
    time, repeats allowed; a p-tuple's target is its (p-1)-prefix's partial
    sum plus the p-th class.  Of the partial sums of one homological degree
    and grade only the heaviest is kept.  That is exact: order.key is linear
    (`orders`) and lexicographic comparison is translation invariant, so a
    continuation that takes any of them to a target with homology takes the
    heaviest to one too.  A partial sum is dropped once every target it
    could reach lies past the support's top homological degree, or when its
    grade is not below the support's top grade componentwise, since a
    further class adds a nonzero grade.  Each length adds at least 2 to the
    homological degree, so the loop ends.
    """
    if table.multigraded is not None:
        grading = "multidegree"
        support = {(i, a) for (i, a) in table.multigraded if i >= 1}
    else:
        grading = "internal degree"
        support = {(i, (j,)) for (i, j) in table.entries if i >= 1}
    if order is None:
        classes = {(i, a, ()) for i, a in support}
    else:
        grading = "multidegree in term order"
        classes = {(i, (sum(a),), order.key(a)) for i, a in support}
    # the last write to a key wins: the lightest class of each homological
    # degree and grade, and below the heaviest partial sum
    least = {(i, g): w for i, g, w in sorted(classes, reverse=True)}

    top_i = max((i for i, _, _ in classes), default=0)
    top = tuple(map(max, zip(*(g for _, g, _ in classes))))

    def alive(h, g):
        return h < top_i and g != top and all(x <= t for x, t in zip(g, top))

    level = {(i, g): w for i, g, w in sorted(classes) if alive(i, g)}
    p = 1
    while level:
        p += 1
        grown = {}
        for (h, g), w in level.items():
            for i, b, v in classes:
                c = tuple(map(add, g, b))
                u = tuple(map(add, w, v))
                low = least.get((h + i, c))
                if low is not None and low <= u:
                    return None
                k = (h + i + 1, c)
                if alive(*k) and grown.get(k, u) <= u:
                    grown[k] = u
        level = grown
    return grading, p


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class GolodCertificate:
    verdict: str  # "NotGolod" | "GolodProven" | "GolodUpTo"
    rule: Optional[str]
    witness: Optional[dict]
    evidence: dict
    serre: Optional[dict]  # {"poincare": [...], "bound": [...], "N": int}
    config: AnalyzerConfig
    caps_exceeded: bool = False

    @property
    def golod_class(self) -> str:
        """Coarse verdict class: "NotGolod" or "Golod" (proven or evidence)."""
        return "NotGolod" if self.verdict == "NotGolod" else "Golod"

    def to_json(self) -> dict:
        out = {
            "verdict": self.verdict,
            "rule": self.rule,
            "witness": _witness_json(self.witness),
            "serre": self.serre,
            "config": self.config.to_json(),
            "evidence": self.evidence,
            "caps_exceeded": self.caps_exceeded,
        }
        return out

    def summary(self) -> str:
        if self.verdict == "GolodProven":
            return "GolodProven(%s)" % self.rule
        if self.verdict == "GolodUpTo":  # as far as the Serre block reached
            return "GolodUpTo(%d)" % (self.serre["N"] if self.serre else self.config.N)
        return "NotGolod(%s)" % self.rule


def _class_json(h) -> dict:
    key = h.key
    return {
        "hom_degree": h.hom_degree,
        "strand": list(key) if isinstance(key, tuple) else key,
        "rep": h.rep.to_text(),
    }


def _witness_json(w):
    if w is None:
        return None
    out = {}
    for k, v in w.items():
        if k == "classes":
            out[k] = [_class_json(h) for h in v]
        elif k == "product":
            out[k] = v.to_text()
        elif k == "tuple":
            out[k] = [list(x) if isinstance(x, tuple) else x for x in v]
        else:
            out[k] = v
    return out


def _check_input(gb: GroebnerBasis):
    for g in gb.gens:
        if g.total_degree() == 1:
            raise InputError(
                "generators must lie in the square of the maximal ideal; "
                "split off linear forms before certifying"
            )


def _check_polarization(pol, quot, pol_quot):
    """Certify the hypotheses of the polarization transfer, R/I = quot and
    R'/J = pol_quot.

    The polarized generators depolarize one to one onto the generators of
    I, so R'/(J + L) is R/I, L the variable differences.  Equal graded Betti
    tables of R/I and R'/J give equal K-polynomials, so the Hilbert series
    of R'/(J + L) is (1 - t)^s times that of R'/J, s = |L|; by Stanley's
    criterion L is then a regular sequence on R'/J in every degree
    (Herzog-Hibi, Monomial Ideals, Prop. 1.6.2; Peeva, Graded Syzygies,
    Sec. 21).
    """
    back = sorted(pol.depolarize(g) for g in pol.ideal.gens)
    if back != sorted(pol.source.gens):
        raise InconsistencyError(
            "polarized generators do not depolarize onto the generators of I"
        )
    if quotient_betti(quot).entries != quotient_betti(pol_quot).entries:
        raise InconsistencyError(
            "polarized quotient and R/I have different Betti tables, so the "
            "variable differences are not a regular sequence"
        )


def _proof(gb: GroebnerBasis, config: AnalyzerConfig, caps: list, degeneration=None):
    """Rules 2-6 on the ideal presented by gb: (rule, evidence) when a proof
    rule's exactly checked hypotheses hold, else None.  Rules 4 and 5
    recurse here on their inner ideal.  degeneration is the term order of
    rule 4's degeneration when gb presents its in(I), else None.  There
    only rule 2 (a linear resolution of in(I) is one of I) and rule 6 (in
    the degeneration's weights, one partial sum per homological and
    internal degree) prove R/I Golod; a power of in(I) or its polarization
    says nothing of I, so rules 3 and 5 are not tried.  Depolarization
    maps each target with homology of the polarization onto one of R/I, so
    rule 6 fires on R/I's table only where it fires on the polarization's:
    once rule 5's inner proof fails, rule 6 on R/I cannot fire.  The names
    of the caps hit are appended to caps."""
    quot = gb.quotient()
    I_mono = gb.initial_ideal() if gb.is_monomial and gb.lts else None

    if I_mono is not None:
        # rule 2: rainbow with linear resolution
        det = detect_rainbow(I_mono)
        if det.status == "bound_exceeded":
            caps.append("rainbow color search bound")
        if det.status == "found" and has_linear_resolution(quotient_betti(quot)):
            table = None
            try:
                table = build_rainbow_table(quot, det.structure, p_max=config.p_max)
            except CapExceededError:
                caps.append("rainbow label cap")
            if table is not None and table.cut:
                caps.append("rainbow tuple cap")
            return "RainbowLinear", {
                "structure": det.structure.describe(),
                "generator_degree": I_mono.gen_degrees()[0],
                "linear_resolution": True,
                "massey_table": _table_summary(table),
            }

        # rule 3: power of a monomial ideal
        rec = recognize_monomial_power(I_mono) if degeneration is None else None
        if rec is not None:
            J, t = rec
            return "MonomialPower", {
                "root_generators": [gb.ring.mono_str(m) for m in J.gens],
                "exponent": t,
            }

    # rules 4 and 5 each pick a transfer: the rule, the inner ideal's
    # Groebner basis, the evidence for the hypotheses and the inner
    # ideal's degeneration
    transfer = None
    if not gb.is_monomial:
        # rule 4: fiber-invariant transfer to the initial ideal
        fi = fiber_invariant(gb)
        if fi.invariant:
            ev = {"fiber_invariance": fi.fast_path or "entrywise Betti comparison"}
            transfer = "FiberInvariantTransfer", gb.initial_quotient().gb, ev, gb.order
    elif degeneration is None and I_mono is not None and not I_mono.is_squarefree():
        # rule 5: polarization transfer for non-squarefree monomial ideals
        pol = polarize(I_mono)
        inner_gb = GroebnerBasis(pol.ring, lex(pol.ring), pol.ideal.polys())
        _check_polarization(pol, quot, inner_gb.quotient())
        # the check covers every degree; the evidence reports the fixed
        # degree max deg(I) + s + 2, s the number of differences
        verified_to = max(I_mono.gen_degrees()) + pol.ring.nvars - gb.ring.nvars + 2
        ev = {"polarized_variables": pol.ring.nvars, "regular_sequence_verified_to": verified_to}
        transfer = "PolarizationTransfer", inner_gb, ev, None

    if transfer is not None:
        rule, inner_gb, ev, inner_degeneration = transfer
        inner_caps = []
        inner = _proof(inner_gb, config, inner_caps, inner_degeneration)
        if inner_caps:
            caps.append("inner certificate caps")
        if inner is not None:
            inner_rule, inner_evidence = inner
            ev["inner"] = GolodCertificate(
                "GolodProven", inner_rule, None, inner_evidence, None, config, bool(inner_caps)
            ).to_json()
            return rule, ev

    # rule 6: no Massey equation has a target with homology
    found = degree_vanishing(quotient_betti(quot), degeneration)
    if found is None:
        return None
    grading, tested_to = found
    return "DegreeVanishing", {"grading": grading, "tested_to": tested_to}


def golod_certificate(gb: GroebnerBasis, config: Optional[AnalyzerConfig] = None):
    """Run the rule ladder on the ideal presented by a Groebner basis."""
    config = config or AnalyzerConfig()
    quot = gb.quotient()
    _check_input(gb)
    caps = []

    # when a proof rule's exactly checked hypotheses hold, the theorem
    # behind it makes every homology product and Massey product vanish, so
    # the expensive direct search of rule 1 could not produce a witness
    witness = None
    proof = _proof(gb, config, caps)
    if proof is not None:
        verdict = "GolodProven"
        rule, evidence = proof
    else:
        verdict = rule = None
        evidence = {}
        # rule 1: the direct search for a nonzero product or Massey
        # product on R/I, the one place a witness of non-Golodness is found
        outcome = build_trivial_table(quot, p_max=config.p_max)
        if outcome.table is not None and outcome.table.cut:
            caps.append("massey tuple cap")
        witness = outcome.witness
        if witness is not None:
            verdict = "NotGolod"
            rule = "HomologyProduct" if witness["kind"] == "product" else "MasseyProduct"
            evidence = {
                "note": "first unsolvable tuple of the trivial-Massey recursion; "
                "with all shorter products zero its right-hand side represents "
                "the (singleton) Massey product of the tuple"
                if witness["kind"] == "massey"
                else "nonzero product of two Koszul homology classes",
            }

    # Poincare/Serre block, with its hard assertions; it reaches t^pdata.N,
    # short of t^config.N when it runs out of work budget
    serre = pdata = None
    if config.with_serre:
        pdata = poincare_coeffs(quot, config.N)
        serre = {"poincare": list(pdata.coefficients), "bound": list(pdata.bound), "N": pdata.N}
        if pdata.N < config.N:
            caps.append("poincare work budget")
    if pdata is not None:
        if verdict == "NotGolod" and rule in ("HomologyProduct", "MasseyProduct"):
            # a nonzero product of classes in H_{i_1}..H_{i_p} forces a gap
            # at t^(sum i_k + p - 1); equality below that is no contradiction
            gap_at = sum(c.hom_degree for c in witness["classes"]) + witness["length"] - 1
            if pdata.N >= gap_at and pdata.is_equality():
                raise InconsistencyError(
                    "Serre equality through t^%d next to a nonzero (Massey) "
                    "product witness, which forces a gap at t^%d: "
                    "implementation fault" % (pdata.N, gap_at)
                )
        if verdict == "GolodProven" and not pdata.is_equality():
            raise InconsistencyError(
                "rule %s proved Golod but the Poincare series misses the "
                "Serre bound at coefficient %d" % (rule, pdata.first_gap())
            )

    # rule 7: evidence-only verdicts
    if verdict is None:
        if pdata is not None and not pdata.is_equality():
            i = pdata.first_gap()
            verdict, rule = "NotGolod", "SerreGap"
            witness = {
                "kind": "serre-gap",
                "coefficient": i,
                "poincare": pdata.coefficients[i],
                "bound": pdata.bound[i],
            }
            evidence = {
                "note": "Poincare series of k falls strictly below the Serre "
                "bound, which characterizes the failure of Golodness"
            }
        else:
            verdict = "GolodUpTo"
            # the lengths the direct search finished; a search cut during
            # length 2 verified no product
            table = outcome.table if outcome.table.p_max >= 2 else None
            evidence = {
                "N": config.N,
                "products_vanish": table is not None,
                "massey_vanish_to": table.p_max if table is not None else None,
                "serre_equality_to": pdata.N if pdata is not None else None,
                "massey_table": _table_summary(table),
            }

    return GolodCertificate(
        verdict=verdict,
        rule=rule,
        witness=witness,
        evidence=evidence,
        serre=serre,
        config=config,
        caps_exceeded=bool(caps),
    )


def _table_summary(table: Optional[MasseyTable]):
    if table is None:
        return None
    return {
        "mode": table.mode,
        "basis": len(table.basis),
        "tuples_by_length": {str(k): v for k, v in sorted(table.counts.items())},
        "p_max": table.p_max,
        "verified": table.verified,
        "solved_tuples": len(table.findings),
    }
