"""The consistency check between a NotGolod witness and the Serre block,
the Serre-gap verdict, the one direct Massey search of each job, and the
degree-vanishing rule that decides most jobs before that search."""

import itertools
import json
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from jsonschema import Draft202012Validator

from golodlab import (
    GF,
    QQ,
    BettiTable,
    GroebnerBasis,
    PolyRing,
    analyzer,
    cli,
    grevlex,
    lex,
    massey,
    resolution,
    taylor_betti,
    weight_order,
)
from golodlab.koszul import quotient_betti
from golodlab.massey import build_trivial_table
from golodlab.monomial import MonomialIdeal, polarize
from golodlab.parsing import parse_ideal_text

from conftest import (
    FIXTURES,
    degree_vanishing_oracle,
    random_homogeneous_poly,
    random_monomial,
    seeded,
)

GORENSTEIN3 = str(FIXTURES / "gorenstein3.txt")
SCHEMAS = Path(cli.__file__).resolve().parent / "schemas"


def _golod(argv, capsys):
    code = cli.main(["golod", "--ideal"] + argv + ["--json"])
    out = capsys.readouterr()
    return code, (json.loads(out.out)["certificate"] if out.out else None), out.err


@pytest.mark.parametrize(
    "argv",
    [["x^2,y^2", "--N", "1"], ["x^2,y^2", "--N", "2"], [GORENSTEIN3, "--N", "3"]],
)
def test_equality_below_the_forced_gap_is_consistent(argv, capsys):
    # the product witness forces a gap at t^3 (x^2,y^2) and t^4 (gorenstein3)
    code, cert, _ = _golod(argv, capsys)
    assert code == 0
    assert (cert["verdict"], cert["rule"]) == ("NotGolod", "HomologyProduct")
    assert cert["serre"]["poincare"] == cert["serre"]["bound"]


@pytest.mark.parametrize("argv", [["x^2,y^2", "--N", "3"], [GORENSTEIN3, "--N", "4"]])
def test_equality_at_the_forced_gap_raises(argv, monkeypatch, capsys):
    real = analyzer.poincare_coeffs

    def equal(*args, **kwargs):
        P = real(*args, **kwargs)
        return replace(P, coefficients=P.bound)

    monkeypatch.setattr(analyzer, "poincare_coeffs", equal)
    code, cert, err = _golod(argv, capsys)
    assert code == 3
    assert cert is None
    assert "forces a gap" in err


# found by a seeded search over random monomial ideals in 4-6 variables
# with 5 or 6 generators of degree 2 or 3 (seed 2604; 42 of 16,789
# non-squarefree draws): no proof rule decides R/I or its polarization, and
# the direct search finishes every length through 4 with 13 classes, the
# fewest any such draw had
UNDECIDED = "ring: QQ[x,y,z,w]\nideal: z*w, z^2, y*w, x*w, x*y*z"


@pytest.mark.parametrize(
    "ideal, budget, verdict, rule",
    [
        ("x^2,y^2", 6, "NotGolod", "HomologyProduct"),
        ("2*x^2*y-6*x*y*z-2*x*z^2,9*x*y,-6*x^2*z", 12, "GolodProven", "PolarizationTransfer"),
        (UNDECIDED, 24, "GolodUpTo", None),
    ],
)
def test_a_block_cut_by_the_budget_reports_its_own_length(ideal, budget, verdict, rule, monkeypatch, capsys):
    """Each budget stops the Serre block at t^2.  For x^2,y^2 that is below
    the gap its product witness forces at t^3, so equality is no
    contradiction; the verdict stands and the cut is reported as a cap.
    The second ideal has the monomial basis xy, x^2z, xz^2; its block
    reaches t^2 with 10 to 17 inserts, and t^8 with 21.  Degree vanishing
    on its polarization decides it.  The third ideal stays GolodUpTo, and
    its summary names the length the block reached."""
    monkeypatch.setattr(resolution, "POINCARE_BUDGET", budget)
    code, cert, _ = _golod([ideal], capsys)
    assert code == 0
    assert (cert["verdict"], cert["rule"], cert["caps_exceeded"]) == (verdict, rule, True)
    serre = cert["serre"]
    assert serre["N"] == 2 and len(serre["poincare"]) == len(serre["bound"]) == 3
    assert serre["poincare"] == serre["bound"]
    if verdict != "NotGolod":
        assert cli.main(["golod", "--ideal", ideal]) == 0
        summary = "GolodUpTo(2)" if verdict == "GolodUpTo" else "GolodProven(%s)" % rule
        assert capsys.readouterr().out.startswith(summary + "\n")
    if verdict == "GolodUpTo":
        assert cert["evidence"]["serre_equality_to"] == 2
    if verdict == "GolodProven":
        assert cert["evidence"]["inner"]["rule"] == "DegreeVanishing"


@pytest.mark.parametrize("cap, rule", [(5, "SerreGap"), (12, "HomologyProduct")])
def test_serre_gap_decides_when_the_direct_search_stops_short(cap, rule, monkeypatch, capsys):
    """With a tuple cap of 5 the direct search stops before gorenstein3's
    first nonzero product, and the Serre block finds the Poincare series
    one below the bound at t^4.  With 12 the search finds the product."""
    monkeypatch.setattr(massey, "TUPLE_CAP", cap)
    assert cli.main(["golod", "--ideal", GORENSTEIN3, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    cert = payload["certificate"]
    assert (cert["verdict"], cert["rule"]) == ("NotGolod", rule)
    assert cert["caps_exceeded"] is (rule == "SerreGap")
    if rule == "SerreGap":
        assert cert["witness"] == {"kind": "serre-gap", "coefficient": 4, "poincare": 55, "bound": 56}
    for name, doc in (("job_output", payload), ("certificate", cert)):
        schema = json.loads((SCHEMAS / ("%s.schema.json" % name)).read_text())
        assert list(Draft202012Validator(schema).iter_errors(doc)) == []


# the direct search on this ideal visits 441 pairs, 2,418 triples and 5,080
# quadruples; a count of every tuple, 21^2 + 21^3 + 21^4 = 204,183, would
# pass the tuple cap
SIX_VARIABLES = "x4*x5,x2*x4,x1*x4,x0*x4,x0*x3,x0*x1*x5"


@pytest.mark.parametrize(
    "cap, finished",
    [(None, 4), (441 + 2_418 + 5_080 - 1, 3), (441 + 100, 2), (440, None)],
)
def test_golod_upto_reports_the_lengths_the_direct_search_finished(cap, finished, monkeypatch, capsys):
    """Uncapped, the search finishes every length through p_max = 4.  A
    cap that runs out during length p keeps lengths 2..p-1 as evidence and
    counts as a cap; one that runs out among the pairs verifies nothing."""
    if cap is not None:
        monkeypatch.setattr(massey, "TUPLE_CAP", cap)
    code, cert, _ = _golod([SIX_VARIABLES], capsys)
    assert code == 0
    assert (cert["verdict"], cert["rule"]) == ("GolodUpTo", None)
    assert cert["caps_exceeded"] is (cap is not None)
    ev = cert["evidence"]
    assert (ev["products_vanish"], ev["massey_vanish_to"]) == (finished is not None, finished)
    if finished is None:
        assert ev["massey_table"] is None
    else:
        table = ev["massey_table"]
        assert (table["p_max"], table["verified"]) == (finished, True)
        assert sorted(table["tuples_by_length"]) == [str(p) for p in range(1, finished + 1)]


def _searched_quotients(monkeypatch):
    """The quotients that analyzer's direct searches run on, in order."""
    searched = []
    real = analyzer.build_trivial_table

    def counted(quot, *args, **kwargs):
        searched.append(quot)
        return real(quot, *args, **kwargs)

    monkeypatch.setattr(analyzer, "build_trivial_table", counted)
    return searched


def _certify(text):
    f = parse_ideal_text(text)
    gb = GroebnerBasis(f.ring, grevlex(f.ring), f.gens)
    return gb, analyzer.golod_certificate(gb)


@pytest.mark.parametrize(
    "text",
    [
        # monomial, not squarefree: rule 5 tries its polarization, which
        # no proof rule decides
        UNDECIDED,
        # fiber invariant, in(I) = (xy, y^2 z): rule 4 tries in(I), and
        # rule 5 its polarization; found by a seeded search (seed 29) over
        # random graded ideals in 3-5 variables with a non-squarefree
        # initial ideal
        "ring: QQ[x,y,z]\nideal: 2*x*y - y*z, 3*x^2*y + 3*y^2*z",
    ],
    ids=["polarized", "fiber_invariant"],
)
def test_each_golod_job_runs_one_direct_search_on_its_own_quotient(text, monkeypatch):
    """Rules 4 and 5 recurse through the proof rules only, so the direct
    Massey search runs once, on R/I, however deep the transfers go."""
    searched = _searched_quotients(monkeypatch)
    gb, cert = _certify(text)
    assert cert.verdict == "GolodUpTo"
    assert len(searched) == 1 and searched[0] is gb.quotient()


@pytest.mark.parametrize(
    "text, rule",
    [
        ("ring: QQ[x,y,z]\nideal: x*y^2, x*z^2", "PolarizationTransfer"),
        (
            "ring: QQ[p,h,y]\nideal: 6*p*h*y - 9*p^2*y, -12*h*y - 8*p*y",
            "FiberInvariantTransfer",
        ),
    ],
    ids=["polarized", "fiber_invariant"],
)
def test_degree_vanishing_below_a_transfer_skips_the_direct_search(text, rule, monkeypatch):
    """The rings the search test above used until degree vanishing
    decided them: on the polarization of x*y^2, x*z^2, and on
    in(I) = (p*y, h^2*y) read in the degeneration's weights."""
    searched = _searched_quotients(monkeypatch)
    _, cert = _certify(text)
    assert (cert.verdict, cert.rule) == ("GolodProven", rule)
    assert cert.evidence["inner"]["rule"] == "DegreeVanishing"
    assert searched == []


def _nonsquarefree_monomial_ideals(field, seed, count):
    rng = seeded(seed)
    while count:
        nvars = rng.choice((3, 4))
        ring = PolyRing(tuple("xyzw"[:nvars]), field)
        I = MonomialIdeal.from_monos(
            ring, {random_monomial(rng, ring, 3) for _ in range(rng.randint(2, 4))}
        )
        if min(I.gen_degrees()) >= 2 and not I.is_squarefree():
            count -= 1
            yield I


def _search(ring, order, polys):
    out = build_trivial_table(GroebnerBasis(ring, order, polys).quotient())
    if out.witness is not None:
        return out.witness["kind"], out.witness["length"]
    return "finished", out.table.p_max


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=["QQ", "F2", "F3"])
def test_direct_search_agrees_on_a_ring_and_its_polarization(field):
    """The polarization rule no longer searches its inner ring.  The
    variable differences are a regular sequence of linear forms on R'/J,
    so K^{R'/J} -> K^{R/I} is a quasi-isomorphism of DG algebras and both
    rings have the same products and Massey products: the direct search
    finds a witness of the same kind and length on both, or finishes the
    same lengths on both."""
    kinds = set()
    for I in _nonsquarefree_monomial_ideals(field, 2604, 50):
        pol = polarize(I)
        direct = _search(I.ring, grevlex(I.ring), I.polys())
        assert _search(pol.ring, lex(pol.ring), pol.ideal.polys()) == direct, I.gens
        kinds.add(direct[0])
    assert kinds == {"product", "finished"}


def test_degree_vanishing_on_r_mod_i_implies_it_on_the_polarization():
    """Depolarization maps the polarization's multidegrees onto R/I's,
    additively, and R/I's multigraded Betti number in a degree is the sum of
    the polarization's over the degrees mapped there.  So a tuple of the
    polarization's classes whose target has homology maps to one of R/I's
    whose target has homology: when degree vanishing fires on R/I's table it
    fires on the polarization's.  The converse fails: the finer grading can
    separate what R/I's table cannot."""
    rng = seeded(1)
    outcomes = set()
    count = 300
    while count:
        nvars = rng.randint(2, 5)
        ring = PolyRing(tuple("xyzwv"[:nvars]), rng.choice((QQ, GF(2), GF(3))))
        I = MonomialIdeal.from_monos(ring, {random_monomial(rng, ring, 3) for _ in range(rng.randint(2, 5))})
        if min(I.gen_degrees()) < 2 or I.is_squarefree():
            continue
        count -= 1
        pol = polarize(I)
        own, polarized = (
            analyzer.degree_vanishing(quotient_betti(GroebnerBasis(J.ring, lex(J.ring), J.polys()).quotient()))
            is not None
            for J in (I, pol.ideal)
        )
        assert polarized or not own, I.gens
        outcomes.add((own, polarized))
    assert outcomes == {(True, True), (False, False), (False, True)}


def test_the_polarized_cubic_job_is_bounded(monkeypatch, capsys):
    """x*y - z^2 plus every degree-9 monomial: in(I) is fiber invariant and
    its polarization has 27 variables, whose direct search once ran for
    minutes.  Degree vanishing on in(I), read in the weights of the
    degeneration, now decides it, and no direct search runs."""
    searched = _searched_quotients(monkeypatch)
    ninth = [
        "*".join("%s^%d" % (v, e) for v, e in zip("xyz", t) if e)
        for t in itertools.product(range(10), repeat=3)
        if sum(t) == 9
    ]
    assert len(ninth) == 55
    ideal = ",".join(["x*y-z^2"] + ninth)
    code, cert, _ = _golod([ideal, "--order", "grevlex", "--N", "2"], capsys)
    assert code == 0
    assert (cert["verdict"], cert["rule"]) == ("GolodProven", "FiberInvariantTransfer")
    inner = cert["evidence"]["inner"]
    assert (inner["rule"], inner["evidence"]["grading"]) == ("DegreeVanishing", "multidegree in term order")
    assert searched == []


# ---------------------------------------------------------------------------
# degree vanishing


def _rules(cert):
    """The rule of cert and of each inner certificate, outermost first."""
    rules = [cert["rule"]]
    while "inner" in cert["evidence"]:
        cert = cert["evidence"]["inner"]
        rules.append(cert["rule"])
    return rules


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("pd", [1, 2, 3, 6])
def test_every_linear_resolution_table_passes(d, pd):
    """A d-linear table has classes in bidegrees (i, i + d - 1).  A p-tuple's
    target (sum i + p - 2, sum i + p(d - 1)) would need (p - 1)(d - 2) = -1,
    which has no solution for d >= 2, whatever the Betti numbers are."""
    rng = seeded(d * 10 + pd)
    entries = {(0, 0): 1}
    entries.update({(i, i + d - 1): rng.randint(1, 9) for i in range(1, pd + 1)})
    grading, tested_to = analyzer.degree_vanishing(BettiTable(entries))
    assert grading == "internal degree"
    # each class adds at least 2 to a partial sum's homological degree, so
    # no target of a tuple longer than pd // 2 + 1 is below pd
    assert 1 <= tested_to <= pd // 2 + 1


def test_gorenstein3_fails_and_its_initial_ideal_passes(gorenstein_gb, gorenstein_initial_quot):
    """gorenstein3's H_1 x H_1 -> H_2 product lands where its table has
    homology; R/in(I) has the finer multigrading, in which no target of
    any tuple does."""
    assert analyzer.degree_vanishing(quotient_betti(gorenstein_gb.quotient())) is None
    table = quotient_betti(gorenstein_initial_quot)
    assert table.multigraded is not None
    assert analyzer.degree_vanishing(table) == ("multidegree", 2)


def test_a_fiber_invariant_ring_needs_the_degeneration_weights(capsys):
    """R/I and R/in(I) have equal Betti tables, in(I) = (yz, z^3, x^2 w,
    xzw) passes on its multidegrees, and yet R/I has a nonzero product: the
    class of xw + 2yz times that of z^3 is z^2 w e_x e_z / 2, whose image
    at t = 0 is a boundary.  Read in the term order, the target z^4 y of
    that pair meets the class of in(I) at x z^3 w, which is smaller, so
    degree vanishing through the degeneration does not fire.  Found by a
    random search over fiber-invariant graded ideals."""
    text = "ring: QQ[x,y,z,w]\nideal: x*w + 2*y*z, z^3, y*z^2, x*y*z"
    f = parse_ideal_text(text)
    gb = GroebnerBasis(f.ring, grevlex(f.ring), f.gens)
    assert analyzer.fiber_invariant(gb).invariant
    initial = quotient_betti(gb.initial_quotient())
    assert analyzer.degree_vanishing(initial) == ("multidegree", 2)
    assert analyzer.degree_vanishing(initial, gb.order) is None
    code, cert, _ = _golod([text], capsys)
    assert code == 0
    assert (cert["verdict"], cert["rule"]) == ("NotGolod", "HomologyProduct")
    assert cert["serre"]["poincare"][3] == cert["serre"]["bound"][3] - 1


@pytest.mark.parametrize(
    "text",
    [
        # MonomialPower on in(I) = (a^2, a*d, d^2) = (a, d)^2
        "ring: QQ[a,b,c,d]\nideal: -2*a*d, a*d + d^2, a^2 + 3*a*c",
        # PolarizationTransfer/RainbowLinear on in(I) = (a^2, a*b)
        "ring: QQ[a,b,c]\nideal: 2*a^2 + 2*a*b - a*c, 3*a^2",
    ],
    ids=["power", "polarized"],
)
def test_rule_4_carries_only_what_the_degeneration_proves(text, capsys):
    """A power of in(I) and the polarization of in(I) say nothing of I, so
    below rule 4 neither is tried; degree vanishing in the degeneration's
    weights decides both initial ideals instead."""
    code, cert, _ = _golod([text, "--order", "lex"], capsys)
    assert code == 0
    assert (cert["verdict"], cert["rule"]) == ("GolodProven", "FiberInvariantTransfer")
    inner = cert["evidence"]["inner"]
    assert (inner["rule"], inner["evidence"]["grading"]) == ("DegreeVanishing", "multidegree in term order")


def test_degree_vanishing_keeps_one_partial_sum_per_degree():
    """Keeping only the heaviest partial sum of each homological and
    internal degree decides exactly what keeping every multidegree does,
    on the Taylor tables of random monomial ideals, with and without a
    term order."""
    rng = seeded(30)
    outcomes = set()
    for _ in range(200):
        nvars = rng.randint(3, 6)
        ring = PolyRing(tuple("x%d" % v for v in range(1, nvars + 1)), QQ)
        gens = set()
        while len(gens) < rng.randint(3, 8):
            m = random_monomial(rng, ring, 3)
            if sum(m) >= 2:
                gens.add(m)
        table = taylor_betti(MonomialIdeal.from_monos(ring, gens))
        priority = list(range(nvars))
        rng.shuffle(priority)
        weights = [rng.randint(1, 3) for _ in range(nvars)]
        for order in (None, lex(ring, priority), grevlex(ring, priority), weight_order(ring, weights, priority)):
            found = analyzer.degree_vanishing(table, order)
            assert found == degree_vanishing_oracle(table, order), (gens, order)
            outcomes.add((order is None, found is None))
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


def test_only_the_heaviest_partial_sum_meets_the_target():
    """A table whose two H_1 classes, at y and x, have equal internal
    degree.  Under lex y > x the 3-tuple (y, y, y) targets H_4 at y^3,
    where the table has a class; the prefixes (x, y) and (x, x), in the
    degrees of (y, y) but lighter, reach only x y^2 and lighter monomials.
    Keeping a lighter prefix would miss the class."""
    multigraded = {(0, (0, 0)): 1, (1, (0, 1)): 1, (1, (1, 0)): 1, (3, (3, 3)): 1, (4, (0, 3)): 1}
    entries = {(0, 0): 1, (1, 1): 2, (3, 6): 1, (4, 3): 1}
    table = BettiTable(entries, multigraded)
    ring = PolyRing(("x", "y"), QQ)
    assert analyzer.degree_vanishing(table, lex(ring, (1, 0))) is None
    assert degree_vanishing_oracle(table, lex(ring, (1, 0))) is None


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=["QQ", "F2", "F3"])
@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10 ** 9),
    nvars=st.integers(3, 6),
    monomial=st.booleans(),
    order=st.sampled_from([grevlex, lex]),
)
def test_degree_vanishing_never_meets_a_witness(field, seed, nvars, monomial, order):
    """Random monomial and graded quotients: wherever degree vanishing
    decides a certificate, on R/I, on a polarization or on in(I) through
    the degeneration, the direct search on R/I finds no nonzero product or
    Massey product, and the Poincare series of k meets the Serre bound.
    Below rule 4 only rainbow linear and degree vanishing proofs appear."""
    rng = seeded(seed)
    ring = PolyRing(tuple("x%d" % v for v in range(1, nvars + 1)), field)
    gens = [
        random_homogeneous_poly(rng, ring, rng.randint(2, 3), 1 if monomial else 2)
        for _ in range(rng.randint(2, 5))
    ]
    gb = GroebnerBasis(ring, order(ring), gens)
    if not gb.lts:
        return
    cert = analyzer.golod_certificate(gb, analyzer.AnalyzerConfig(N=5)).to_json()
    rules = _rules(cert)
    if rules[0] == "FiberInvariantTransfer":
        assert rules[1:] in (["RainbowLinear"], ["DegreeVanishing"])
    if "DegreeVanishing" not in rules:
        return
    assert cert["verdict"] == "GolodProven"
    assert build_trivial_table(gb.quotient(), p_max=3).witness is None
    pdata = resolution.poincare_coeffs(gb.quotient(), 5)
    assert pdata.coefficients == pdata.bound
