"""Ideal-file grammar: round trips, error locations, order descriptors."""

import pytest

from golodlab import (
    QQ,
    ParseError,
    PolyRing,
    grevlex,
    ideal_file_str,
    infer_ring_from_text,
    parse_ideal_text,
    parse_order,
    parse_poly,
    parse_ring,
    poly_str,
)
from golodlab.parsing import IdealFile

from conftest import FIXTURES


def test_parse_ring_variants():
    r = parse_ring("QQ[x1,x2,x3]")
    assert r.names == ("x1", "x2", "x3") and r.field == QQ
    r2 = parse_ring("F7[a, b]")
    assert r2.field.char == 7
    with pytest.raises(ParseError):
        parse_ring("ZZ[x]")
    with pytest.raises(ParseError):
        parse_ring("QQ[]")
    # a modulus must be a prime in 2..2^31; F0 is not QQ
    for bad in ("F4[x,y]", "F1[x,y]", "F0[x,y]", "F4294967311[x,y]"):
        with pytest.raises(ParseError, match="bad ring declaration"):
            parse_ring(bad)


def test_fixture_files_round_trip():
    for path in sorted(FIXTURES.glob("*.txt")):
        text = path.read_text()
        f = parse_ideal_text(text)
        again = parse_ideal_text(ideal_file_str(f))
        assert again.ring.names == f.ring.names
        assert again.gens == f.gens
        if f.order is not None:
            assert again.order.descriptor(f.ring) == f.order.descriptor(f.ring)


def test_gorenstein_fixture_content():
    f = parse_ideal_text((FIXTURES / "gorenstein3.txt").read_text())
    assert len(f.gens) == 5
    assert f.order.descriptor(f.ring).startswith("lex")
    assert all(g.is_homogeneous() for g in f.gens)


def test_parse_error_reports_line():
    bad = "ring: QQ[x,y]\nideal: x^2, x*&y\n"
    with pytest.raises(ParseError) as ei:
        parse_ideal_text(bad)
    assert ei.value.line == 2
    assert "line 2" in str(ei.value)


@pytest.mark.parametrize("bad", [
    "ring: QQ[x,y]\nideal: 1/0*x^2, y^2\n",
    "ring: F3[x,y]\nideal: 1/3*x^2, y^2\n",
    "ring: QQ[x,y]\nweights: a,b\nideal: x^2, y^2\n",
])
def test_bad_number_reports_line(bad):
    with pytest.raises(ParseError) as ei:
        parse_ideal_text(bad)
    assert ei.value.line == 2


@pytest.mark.parametrize("directive, message", [
    ("weights: 1,2", "weights are not supported"),
    ("weights: 1,1", "weights are not supported"),
    ("colors: x | y", "colors are not supported"),
], ids=["1,2", "1,1", "colors"])
def test_weights_directive_is_rejected(directive, message):
    """Rings are standard graded and rainbow classes are searched for: a
    weight vector or a color partition is refused, not ignored."""
    with pytest.raises(ParseError, match=message) as ei:
        parse_ideal_text("ring: QQ[x,y]\n%s\nideal: x^2 - y\n" % directive)
    assert ei.value.line == 2


def test_missing_directives_rejected():
    with pytest.raises(ParseError):
        parse_ideal_text("ideal: x^2\n")
    with pytest.raises(ParseError):
        parse_ideal_text("ring: QQ[x]\n")


def test_continuation_lines():
    f = parse_ideal_text("ring: QQ[x,y]\nideal: x^2,\n  x*y,\n  y^3\n")
    assert len(f.gens) == 3


def test_comments_and_blank_lines_skipped():
    f = parse_ideal_text("# header\n\nring: QQ[x,y]\n# middle\nideal: x*y\n")
    assert len(f.gens) == 1


def test_parse_order_bare_names():
    R = PolyRing(("x", "y"), QQ)
    for text in ("lex", "grevlex", "lex x>y", "weight 2,1"):
        o = parse_order(text, R)
        assert o.key((1, 0)) != o.key((0, 1)) or text == "weight 1,1"


def test_parse_order_diagonal_descriptor():
    names = tuple("x%d%d" % (r, c) for r in (1, 2) for c in (1, 2, 3))
    R = PolyRing(names, QQ)
    o = parse_order("diagonal 2x3", R)
    assert o.descriptor(R) == "diagonal 2x3"


def test_parse_order_rejects_unknown_variable():
    R = PolyRing(("x", "y"), QQ)
    with pytest.raises(ParseError):
        parse_order("lex x>z", R)


def test_infer_ring_sorts_indexed_names():
    r = infer_ring_from_text("x2*x10 + x1^3")
    assert r.names == ("x1", "x2", "x10")
    # rational coefficients must not leak digits into variable names
    r2 = infer_ring_from_text("1/2*a^2 + b")
    assert r2.names == ("a", "b")


def test_poly_str_orders_terms_by_order():
    R = PolyRing(("x", "y"), QQ)
    f = parse_poly("y^3 + x", R)
    assert poly_str(f, grevlex(R)).startswith("y^3")


def test_ideal_file_str_emits_order_line():
    R = PolyRing(("x", "y"), QQ)
    f = IdealFile(R, [parse_poly("x^2", R)], grevlex(R))
    text = ideal_file_str(f)
    assert "order:" in text and "ring: QQ[x,y]" in text
