"""Derived objects are built once per job: each monomial ideal's Betti
table, each other quotient's Betti table and each (order, generators)
Groebner basis, and the polarization transfer checks the construction it
relies on."""

from collections import Counter
from dataclasses import replace

import pytest

from golodlab import (
    GroebnerBasis,
    InconsistencyError,
    LadderMatrix,
    MonomialIdeal,
    analyzer,
    diagonal_order,
    golod_certificate,
    grevlex,
    groebner,
    koszul,
    lex,
    maximal_minors,
    parse_ideal_text,
    parse_poly,
    verify_sparse_theorems,
)

from conftest import FIXTURES


@pytest.fixture
def builds(monkeypatch):
    """Counts engine runs by what they were run on."""
    counts = Counter()

    def count(module, name, key):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            counts[(name,) + key(*args)] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    # a monomial quotient's table depends on its ideal alone
    count(koszul, "taylor_betti", lambda I, *_: (I,))
    count(koszul, "koszul_betti", lambda quot, *_: (quot.gb.order, quot.gb.gens))
    count(groebner, "buchberger", lambda gens, order: (order, tuple(gens)))
    return counts


def _engines(counts):
    return {key[0] for key in counts}


def test_golod_certificate_builds_each_table_and_basis_once(builds):
    f = parse_ideal_text((FIXTURES / "gorenstein3.txt").read_text())
    cert = golod_certificate(GroebnerBasis(f.ring, f.order, f.gens))
    assert cert.summary() == "NotGolod(HomologyProduct)"
    assert _engines(builds) == {"taylor_betti", "koszul_betti", "buchberger"}
    assert [key for key, n in builds.items() if n > 1] == []


def test_minors_battery_builds_each_table_and_basis_once(builds):
    X = LadderMatrix.generic(2, 3)
    report = verify_sparse_theorems(X)
    assert report["all_pass"] is True
    # fiber invariance takes its linear-resolution fast path: no Koszul table
    assert _engines(builds) == {"taylor_betti", "buchberger"}
    assert [key for key, n in builds.items() if n > 1] == []
    # the diagonal order and lex with the identity priority sort alike: one
    # Buchberger run serves both, and each order's entry is still reported
    diag, lex_id = diagonal_order(X.ring, 2, 3), lex(X.ring)
    minors = tuple(maximal_minors(X))
    assert builds[("buchberger", diag, minors)] == 1
    assert builds[("buchberger", lex_id, minors)] == 0
    described = [entry["order"] for entry in report["orders"]]
    assert described[0] == diag.descriptor(X.ring)
    assert lex_id.descriptor(X.ring) in described


def _golod_of(text):
    ring = parse_ideal_text("ring: QQ[x,y,z]\nideal: %s" % text).ring
    gens = [parse_poly(g, ring) for g in text.split(",")]
    return golod_certificate(GroebnerBasis(ring, grevlex(ring), gens))


def _corrupt_polarization(monkeypatch, polarized_gens):
    """Make the analyzer see `polarized_gens` as the polarization."""
    real = analyzer.polarize

    def corrupted(I):
        P = real(I)
        return replace(P, ideal=MonomialIdeal.from_monos(P.ring, polarized_gens))

    monkeypatch.setattr(analyzer, "polarize", corrupted)


def test_polarization_with_a_foreign_generator_raises(monkeypatch):
    # polarized ring x1, x2, y1, z1; y1*z1 depolarizes to y*z, not in I
    _corrupt_polarization(
        monkeypatch, [(1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1), (0, 0, 1, 1)]
    )
    with pytest.raises(InconsistencyError, match="depolarize"):
        _golod_of("x^2, x*y, x*z")


def test_polarization_with_a_different_betti_table_raises(monkeypatch):
    # x1*x2, x1*y1, x2*z1 depolarize one to one onto x^2, x*y, x*z, but they
    # span the edge ideal of a path (Betti 1, 3, 2), not x1*(x2, y1, z1)
    # (Betti 1, 3, 3, 1), so the differences cannot be a regular sequence
    _corrupt_polarization(monkeypatch, [(1, 1, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1)])
    with pytest.raises(InconsistencyError, match="Betti tables"):
        _golod_of("x^2, x*y, x*z")
