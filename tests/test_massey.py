"""Homology products and Massey tables, with the sparse trivial-table
builder checked against the dense one it replaced."""

import copy
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from golodlab import (
    GroebnerBasis,
    KoszulComplex,
    KoszulElement,
    MonomialIdeal,
    QuotientRing,
    RainbowStructure,
    build_rainbow_table,
    build_trivial_table,
    diagonal_order,
    grevlex,
    massey,
)
from golodlab.determinantal import LadderMatrix, maximal_minors
from golodlab.errors import InconsistencyError

from conftest import koszul_oracle, mk_ring, small_ideals, valid_tuples_oracle


def quotient_of(I, order=None):
    gb = GroebnerBasis(I.ring, order or grevlex(I.ring), I.polys())
    return QuotientRing(gb)


@pytest.fixture(scope="module")
def gorenstein_quot(gorenstein_gb):
    return QuotientRing(gorenstein_gb)


def test_hypersurface_is_trivially_golod():
    ring = mk_ring(1, ("x",))
    quot = quotient_of(MonomialIdeal.from_monos(ring, [(2,)]))
    out = build_trivial_table(quot)
    assert out.witness is None
    tbl = out.table
    assert tbl.verified
    # one class, all higher tuples vanish by construction and are not stored
    assert len(tbl.basis) == 1
    assert list(tbl.values) == [(0,)]
    assert tbl.counts == {1: 1, 2: 1, 3: 1, 4: 1}


def test_complete_intersection_has_nonzero_product():
    ring = mk_ring(2, ("x", "y"))
    quot = quotient_of(MonomialIdeal.from_monos(ring, [(2, 0), (0, 2)]))
    out = build_trivial_table(quot)
    assert out.witness is not None
    w = out.witness
    assert w["kind"] == "product"
    assert w["length"] == 2
    # the witness product is a cycle and not a boundary: re-verify from scratch
    kz = KoszulComplex(quot)
    assert w["product"].is_cycle()
    assert kz.boundary_preimage(w["product"]) is None


def test_gorenstein_h1_h2_product_witness(gorenstein_quot):
    out = build_trivial_table(gorenstein_quot)
    assert out.witness is not None
    assert out.witness["kind"] == "product"
    h = out.witness["classes"]
    degs = sorted(c.hom_degree for c in h)
    # socle pairing: H1 x H2 hits the top class
    kz = KoszulComplex(gorenstein_quot)
    prod = h[0].rep.wedge(h[1].rep)
    assert kz.boundary_preimage(prod) is None
    assert prod.hom_degree() == degs[0] + degs[1]


def test_golod_m2_table_verifies():
    ring = mk_ring(2, ("x", "y"))
    quot = quotient_of(MonomialIdeal.from_monos(ring, [(2, 0), (1, 1), (0, 2)]))
    out = build_trivial_table(quot, p_max=4)
    assert out.witness is None
    tbl = out.table
    assert tbl.mode == "all-tuples"
    assert tbl.verified
    assert _copy(tbl).verify().verified
    assert tbl.counts == {1: 5, 2: 25, 3: 125, 4: 625}


def _copy(tbl):
    """A deep copy of a table that shares its quotient."""
    return copy.deepcopy(tbl, {id(tbl.quot): tbl.quot})


def _term(quot, S, m, c):
    return KoszulElement(quot, {(S, m): quot.field.of(c)})


def _triangle_table():
    """(xy, yz, xz) over QQ[x,y,z]: five classes, and exactly two stored
    pair values, mu(0, 1) and mu(1, 0)."""
    ring = mk_ring(3, ("x", "y", "z"))
    quot = quotient_of(MonomialIdeal.from_monos(ring, [(1, 1, 0), (0, 1, 1), (1, 0, 1)]))
    tbl = build_trivial_table(quot, p_max=3).table
    assert sorted(lam for lam in tbl.values if len(lam) == 2) == [(0, 1), (1, 0)]
    return tbl


def _corrupt_pair(tbl):
    tbl.values[(0, 1)] = _term(tbl.quot, (), (0, 0, 0), 1)


def _insert_absent_pair(tbl):
    assert (0, 2) not in tbl.values
    tbl.values[(0, 2)] = _term(tbl.quot, (0, 1, 2), (0, 0, 0), 1)


def _drop_pair(tbl):
    del tbl.values[(1, 0)]


def _unknown_key(tbl):
    tbl.values[(0, 5)] = tbl.values[(0, 1)]


def _noncycle_singleton(tbl):
    # d(e_x) = x, which is nonzero in the quotient
    tbl.values[(0,)] = _term(tbl.quot, (0,), (0, 0, 0), 1)


def _corrupt_singleton(tbl):
    # z e_y is a cycle, since yz = 0, but not the class of basis key 0
    tbl.values[(0,)] = _term(tbl.quot, (1,), (0, 0, 1), 2)


def _drop_singleton(tbl):
    del tbl.values[(2,)]


def _miscount(tbl):
    tbl.counts[3] = 124


# each tamper, and the check of MasseyTable.verify it must trip
TAMPERS = [
    (_corrupt_pair, "defining equation fails"),
    (_insert_absent_pair, "defining equation fails"),
    (_drop_pair, "defining equation fails"),
    (_unknown_key, "missing from basis"),
    (_noncycle_singleton, "is not a cycle"),
    (_corrupt_singleton, "does not represent its basis class"),
    (_drop_singleton, "has no value for basis key"),
    (_miscount, "tuple counts"),
]


@pytest.mark.parametrize("tamper, message", TAMPERS, ids=[t.__name__[1:] for t, _ in TAMPERS])
def test_verify_rejects_tampered_table(tamper, message):
    tbl = _triangle_table()
    assert _copy(tbl).verify().verified
    bad = _copy(tbl)
    tamper(bad)
    with pytest.raises(InconsistencyError, match=message):
        bad.verify()


def _ladder_rainbow(X):
    """R/in(I) for the maximal minors I of X under the diagonal order, and
    the row coloring that makes in(I) rainbow."""
    order = diagonal_order(X.ring, X.rows, X.cols)
    in_I = GroebnerBasis(X.ring, order, maximal_minors(X)).initial_ideal()
    quot = QuotientRing(GroebnerBasis(X.ring, order, in_I.polys()))
    return quot, RainbowStructure(X.ring, X.row_classes())


def _product_rainbow(a, b):
    """R/(x1..xa)(y1..yb), colored by x and y."""
    ring = mk_ring(a + b, ["x%d" % (i + 1) for i in range(a)] + ["y%d" % (j + 1) for j in range(b)])
    monos = [tuple(int(v in (i, a + j)) for v in range(a + b)) for i in range(a) for j in range(b)]
    structure = RainbowStructure(ring, (tuple(range(a)), tuple(range(a, a + b))))
    return quotient_of(MonomialIdeal.from_monos(ring, monos)), structure


RAINBOW_CASES = {
    "diagonal-2x3": lambda: _ladder_rainbow(LadderMatrix.generic(2, 3)),
    "diagonal-2x4": lambda: _ladder_rainbow(LadderMatrix.generic(2, 4)),
    "mask-110/111": lambda: _ladder_rainbow(LadderMatrix.from_text("110/111")),
    "product-2x2": lambda: _product_rainbow(2, 2),
    "product-3x3": lambda: _product_rainbow(3, 3),
}


def test_rainbow_table_on_2x3_minors():
    quot, st = RAINBOW_CASES["diagonal-2x3"]()
    tbl = build_rainbow_table(quot, st, p_max=4)
    assert tbl.mode == "rainbow-valid-tuples"
    assert tbl.verify().verified
    # the labeled basis spans all of positive-degree Koszul homology
    total = sum(b for (i, _), b in koszul_oracle(quot).entries.items() if i >= 1)
    assert len(tbl.basis) == total
    # no tuple value of length >= 2 is stored: the operation is trivial
    assert all(len(lam) == 1 for lam in tbl.values)
    # the counts of valid tuples are recounted, not trusted
    for p, count in ((2, 99), (2, 0), (3, 1)):
        bad = _copy(tbl)
        bad.counts[p] = count
        with pytest.raises(InconsistencyError, match="tuple counts"):
            bad.verify()
    # a value stored for a tuple the table does not claim is an error
    a, b = tbl.keys[0], tbl.keys[1]
    tbl.values[(a, a)] = tbl.values[(a,)].wedge(tbl.values[(b,)])
    with pytest.raises(InconsistencyError, match="not valid"):
        tbl.verify()
    # and the products of all basis pairs vanish in homology
    kz = KoszulComplex(quot)
    for a in tbl.basis:
        for b in tbl.basis:
            assert kz.boundary_preimage(a.rep.wedge(b.rep)) is not None


def _incomplete_key(tbl, structure):
    """Rename basis key 0, everywhere, to a label with one block per color
    whose transversals are not all generators."""
    blocks = [
        [b for r in range(1, len(c) + 1) for b in itertools.combinations(c, r)]
        for c in structure.classes
    ]
    bad = next(lab for lab in itertools.product(*blocks) if lab not in tbl.keys)
    old = tbl.keys[0]
    tbl.keys[0] = bad
    tbl.values = {tuple(bad if k == old else k for k in lam): v for lam, v in tbl.values.items()}


def _stored_past_p_max(tbl, structure):
    """Lower p_max to 2 and drop the count of triples, keeping their values."""
    assert any(len(lam) == 3 for lam in tbl.values)
    tbl.p_max = 2
    del tbl.counts[3]


def _drop_solved_triple(tbl, structure):
    """Delete the value of a solved triple: a valid tuple no longer stored."""
    del tbl.values[tbl.findings[0]]


# each tamper of a rainbow table, the case it is applied to, and the check
# of MasseyTable.verify it must trip
RAINBOW_TAMPERS = [
    (_incomplete_key, "diagonal-2x3", "is not complete"),
    (_stored_past_p_max, "product-3x3", "stored tuple .* is not valid"),
    (_drop_solved_triple, "product-3x3", "defining equation fails"),
]


@pytest.mark.parametrize(
    "tamper, name, message", RAINBOW_TAMPERS, ids=[t.__name__[1:] for t, _, _ in RAINBOW_TAMPERS]
)
def test_verify_rejects_tampered_rainbow_table(tamper, name, message):
    quot, structure = RAINBOW_CASES[name]()
    tbl = build_rainbow_table(quot, structure, p_max=3)
    assert _copy(tbl).verify().verified
    tamper(tbl, structure)
    with pytest.raises(InconsistencyError, match=message):
        tbl.verify()


@pytest.mark.parametrize("name", sorted(RAINBOW_CASES))
def test_valid_tuples_grown_from_shorter_ones_match_the_product_walk(name):
    """Each length, grown from the valid tuples one shorter, is the oracle's
    filter of every tuple, in the same order."""
    quot, structure = RAINBOW_CASES[name]()
    labels = massey.complete_labels(quot, structure)
    level = [(lab,) for lab in labels]
    assert level == valid_tuples_oracle(quot, labels, 1)
    for p in range(2, 5):
        level = massey.valid_tuples(labels, level)
        assert level == valid_tuples_oracle(quot, labels, p)


def test_rainbow_table_on_the_full_3x3_product():
    """(x1,x2,x3)(y1,y2,y3): 49 labels, 144 valid pairs, 36 valid triples,
    each triple solved, and no valid 4-tuple."""
    tbl = build_rainbow_table(*RAINBOW_CASES["product-3x3"](), p_max=4)
    assert (tbl.verified, tbl.cut, tbl.p_max) == (True, False, 4)
    assert tbl.counts == {1: 49, 2: 144, 3: 36}
    assert len(tbl.findings) == 36 and all(len(lam) == 3 for lam in tbl.findings)


# ---------------------------------------------------------------------------
# the dense trivial-table builder and verifier, kept as an oracle for the
# sparse one: every tuple in itertools.product order gets a value, zero
# values included, and each stored equation is re-derived


def dense_rhs(values, lam):
    acc = KoszulElement.zero(values[lam[:1]].quot)
    for cut in range(1, len(lam)):
        left, right = values[lam[:cut]], values[lam[cut:]]
        if not left.is_zero() and not right.is_zero():
            acc = acc + left.signed().wedge(right)
    return acc


def dense_verify(values, basis):
    for lam, v in values.items():
        if len(lam) == 1:
            assert v.is_cycle()
            assert v == basis[lam[0]].rep
            continue
        for cut in range(1, len(lam)):
            assert lam[:cut] in values and lam[cut:] in values
        assert v.differential() == dense_rhs(values, lam)


def dense_trivial_table(quot, p_max):
    """(witness, values) of the dense builder."""
    kz = quot.koszul()
    basis = kz.homology_basis()
    values = {(i,): h.rep for i, h in enumerate(basis)}
    n = quot.ring.nvars
    for p in range(2, p_max + 1):
        for lam in itertools.product(range(len(basis)), repeat=p):
            values[lam] = KoszulElement.zero(quot)
            if sum(basis[i].hom_degree for i in lam) + p - 2 > n:
                continue
            rhs = dense_rhs(values, lam)
            if rhs.is_zero():
                continue
            assert rhs.is_cycle()
            u = kz.boundary_preimage(rhs)
            if u is None:
                kind = "product" if p == 2 else "massey"
                return {"tuple": lam, "length": p, "kind": kind, "product": rhs.terms}, values
            values[lam] = u
    dense_verify(values, basis)
    return None, values


def _outcome(build, ring, gens, p_max):
    """What a builder reports, on a quotient of its own."""
    return build(GroebnerBasis(ring, grevlex(ring), gens).quotient(), p_max)


def _dense(quot, p_max):
    witness, values = dense_trivial_table(quot, p_max)
    if witness is not None:
        return witness
    lengths = {}
    for lam in values:
        lengths[len(lam)] = lengths.get(len(lam), 0) + 1
    nonzero = {lam: v.terms for lam, v in values.items() if not v.is_zero()}
    return lengths, nonzero


def _sparse(quot, p_max):
    out = build_trivial_table(quot, p_max=p_max)
    if out.witness is not None:
        w = out.witness
        return dict({k: w[k] for k in ("tuple", "length", "kind")}, product=w["product"].terms)
    return out.table.counts, {lam: v.terms for lam, v in out.table.values.items()}


def assert_builders_agree(ring, gens, p_max):
    assert _outcome(_sparse, ring, gens, p_max) == _outcome(_dense, ring, gens, p_max)


@settings(max_examples=40, deadline=None)
@given(small_ideals(), st.integers(2, 4))
def test_sparse_trivial_table_matches_dense_oracle(ideal, p_max):
    ring, gens = ideal
    assert_builders_agree(ring, gens, p_max)


# 5-variable quadrics whose tables store triple values reached from one cut
# only: mu(1, 0, 2) has mu(0, 2) but not mu(1, 0) stored, and mu(1, 0, 4)
# the other way round
ONE_SIDED_TRIPLES = {
    "first-cut": [(0, 0, 1, 1, 0), (0, 1, 1, 0, 0), (1, 0, 0, 0, 1), (1, 0, 1, 0, 0)],
    "last-cut": [
        (0, 0, 1, 1, 0), (0, 1, 0, 0, 1), (0, 1, 1, 0, 0),
        (1, 0, 0, 1, 0), (1, 0, 1, 0, 0), (1, 1, 0, 0, 0),
    ],
}


@pytest.mark.parametrize("room", [None, 300])
@pytest.mark.parametrize("name", sorted(ONE_SIDED_TRIPLES))
def test_one_sided_triples_match_dense_oracle(name, room, monkeypatch):
    """room: length-3 candidates the tuple cap leaves after the pairs (None:
    no cap).  first-cut has 244 of them, so its table is complete; last-cut
    has 918, so its table is cut back to the pairs, which the dense oracle
    through length 2 gives."""
    ring = mk_ring(5)
    gens = MonomialIdeal.from_monos(ring, ONE_SIDED_TRIPLES[name]).polys()
    table = build_trivial_table(GroebnerBasis(ring, grevlex(ring), gens).quotient(), 3).table
    finished = 3
    if room is not None:
        if len(massey.candidate_tuples(table.values, 3)) > room:
            finished = 2
        monkeypatch.setattr(massey, "TUPLE_CAP", len(table.basis) ** 2 + room)
    capped = _outcome(build_trivial_table, ring, gens, 3).table
    assert (capped.p_max, capped.cut, capped.verified) == (finished, finished < 3, True)
    assert _sparse(capped.quot, 3) == _dense(capped.quot, finished)
    lam = (1, 0, 2) if name == "first-cut" else (1, 0, 4)
    assert lam in table.values and (lam[:2] in table.values) != (lam[1:] in table.values)


# ---------------------------------------------------------------------------
# the tuple cap: a build that runs out keeps the lengths it finished


def _visits(table, p):
    """Tuples a builder of this table visits at length p: the candidates
    of the general builder, the valid tuples of the rainbow one."""
    if table.mode == "rainbow-valid-tuples":
        return table.counts.get(p, 0)
    return len(massey.candidate_tuples(table.values, p))


def _contents(table, top):
    """The table's tuples, counts and solved tuples of length at most top."""
    return (
        {p: c for p, c in table.counts.items() if p <= top},
        {lam: v.terms for lam, v in table.values.items() if len(lam) <= top},
        [lam for lam in table.findings if len(lam) <= top],
    )


def _rainbow_2x4():
    """The rainbow builder on the diagonal initial ideal of the 2x4
    maximal minors: 17 labels, 4 valid pairs and no valid longer tuple."""
    quot, structure = RAINBOW_CASES["diagonal-2x4"]()
    return lambda: build_rainbow_table(quot, structure, p_max=4)


@pytest.mark.parametrize("builder", ["trivial", "rainbow"])
def test_a_cut_table_is_the_full_table_through_its_finished_lengths(
    builder, gorenstein_initial_quot, monkeypatch
):
    """Caps that run out at the first, a middle and the last tuple of each
    length p give the uncapped table through length p - 1, verified and
    marked cut; a cap that reaches every tuple gives the whole table.  A
    length without tuples to visit cannot run out."""
    if builder == "trivial":
        build = lambda: build_trivial_table(gorenstein_initial_quot, p_max=4).table
    else:
        build = _rainbow_2x4()
    full = build()
    assert not full.cut and full.p_max == 4
    spent = 0
    for p in range(2, 5):
        n = _visits(full, p)
        for cap in sorted({spent, spent + n // 2, spent + n - 1}) if n else ():
            monkeypatch.setattr(massey, "TUPLE_CAP", cap)
            table = build()
            assert (table.p_max, table.cut, table.verified) == (p - 1, True, True)
            assert _contents(table, p - 1) == _contents(full, p - 1)
        spent += n
    monkeypatch.setattr(massey, "TUPLE_CAP", spent)
    table = build()
    assert (table.p_max, table.cut, table.verified) == (4, False, True)
    assert _contents(table, 4) == _contents(full, 4)
