"""Homology products, Massey systems and Massey tables."""

import json
import random

import pytest

from golodlab import (
    GroebnerBasis,
    KoszulComplex,
    MasseyTable,
    MonomialIdeal,
    QuotientRing,
    build_rainbow_table,
    build_trivial_table,
    diagonal_order,
    grevlex,
    homology_product,
    massey_product,
)
from golodlab.errors import InconsistencyError

from conftest import mk_ring


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
    # one class, all higher tuples vanish by construction
    assert len(tbl.basis) == 1
    for lam, v in tbl.values.items():
        if len(lam) > 1:
            assert v.is_zero()


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
    assert not kz.is_boundary(w["product"])


def test_gorenstein_h1_h2_product_witness(gorenstein_quot):
    out = build_trivial_table(gorenstein_quot)
    assert out.witness is not None
    assert out.witness["kind"] == "product"
    h = out.witness["classes"]
    degs = sorted(c.hom_degree for c in h)
    # socle pairing: H1 x H2 hits the top class
    kz = KoszulComplex(gorenstein_quot)
    prod = homology_product(kz, h[0], h[1])
    assert prod is not None
    assert prod.hom_degree() == degs[0] + degs[1]


def test_golod_m2_table_verifies_and_round_trips():
    ring = mk_ring(2, ("x", "y"))
    quot = quotient_of(MonomialIdeal.from_monos(ring, [(2, 0), (1, 1), (0, 2)]))
    out = build_trivial_table(quot, p_max=4)
    assert out.witness is None
    tbl = out.table
    assert tbl.mode == "all-tuples"
    assert tbl.verified
    data = tbl.to_json()
    text = json.dumps(data)
    back = MasseyTable.from_json(json.loads(text))
    assert back.verified
    assert back.keys == tbl.keys
    assert len(back.values) == len(tbl.values)


def test_from_json_rejects_tampered_value():
    ring = mk_ring(2, ("x", "y"))
    quot = quotient_of(MonomialIdeal.from_monos(ring, [(2, 0), (1, 1), (0, 2)]))
    tbl = build_trivial_table(quot, p_max=3).table
    data = tbl.to_json()
    # corrupt one stored defining-system value
    for row in data["values"]:
        if len(row["tuple"]) == 2:
            row["value"] = [[[], "1"]]
            break
    with pytest.raises(InconsistencyError):
        MasseyTable.from_json(data)


def test_massey_undefined_when_pairwise_product_survives():
    ring = mk_ring(2, ("x", "y"))
    quot = quotient_of(MonomialIdeal.from_monos(ring, [(2, 0), (0, 2)]))
    kz = KoszulComplex(quot)
    h = kz.homology_basis(max_hom=1)
    ones = [c for c in h if c.hom_degree == 1]
    assert len(ones) == 2
    r = massey_product(kz, [ones[0], ones[1], ones[0]])
    assert r.kind == "Undefined"
    assert r.obstruction is not None
    assert not kz.is_boundary(r.obstruction)
    assert r.obstruction_interval in ((0, 1), (1, 2))


def test_binary_massey_equals_homology_product(gorenstein_quot):
    kz = KoszulComplex(gorenstein_quot)
    basis = kz.homology_basis()
    for a in basis[:4]:
        for b in basis[:4]:
            prod = homology_product(kz, a, b)
            r = massey_product(kz, [a, b])
            if prod is None:
                assert r.kind == "UniqueZero"
            else:
                assert r.kind == "UniqueNonzero"


def test_rainbow_table_on_2x3_minors():
    from golodlab.determinantal import LadderMatrix, maximal_minors
    from golodlab import RainbowStructure

    X = LadderMatrix.generic(2, 3)
    order = diagonal_order(X.ring, 2, 3)
    gb = GroebnerBasis(X.ring, order, maximal_minors(X))
    in_I = gb.initial_ideal()
    quot = QuotientRing(GroebnerBasis(X.ring, order, in_I.polys()))
    st = RainbowStructure(X.ring, X.row_classes())
    tbl = build_rainbow_table(quot, st, p_max=4)
    assert tbl.mode == "rainbow-valid-tuples"
    assert tbl.verify().verified
    # the labeled basis spans all of positive-degree Koszul homology
    from golodlab import koszul_betti

    total = sum(b for (i, _), b in koszul_betti(quot).entries.items() if i >= 1)
    assert len(tbl.basis) == total
    # every stored tuple value of length >= 2 is zero: the operation is trivial
    for lam, v in tbl.values.items():
        if len(lam) >= 2:
            assert v.is_zero()
    # and the products of all basis pairs vanish in homology
    kz = KoszulComplex(quot)
    for a in tbl.basis:
        for b in tbl.basis:
            assert homology_product(kz, a, b) is None
