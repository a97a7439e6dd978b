"""Text grammar for rings, term orders, and ideals.

    ring: QQ[x1,x2,x3]
    order: lex x1>x2>x3
    ideal: x1^2, x1*x3, -x1*x2+x3^2, x2*x3, x2^2

Polynomials are sums of signed terms; a term is a product of an optional
rational coefficient and variable powers, with '*' optional between factors
(so xy parses as x*y).  Variable names are one letter plus an optional digit
run, which keeps juxtaposition unambiguous.  print/parse round-trips exactly
on canonical output.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import InputError, ParseError
from .fields import GF, QQ, Field
from .linalg import axpy
from .orders import TermOrder, diagonal_order, grevlex, lex, weight_order
from .rings import PolyRing, Polynomial

_NAME = re.compile(r"[A-Za-z][0-9]*")
_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z][0-9]*)|(?P<op>[*^/+\-]))")


def parse_ring(text: str) -> PolyRing:
    """Parse 'QQ[x1,x2,x3]' or 'F7[x,y]'."""
    m = re.fullmatch(r"\s*(QQ|F\d+)\s*\[([^\]]*)\]\s*", text)
    if not m:
        raise ParseError("bad ring declaration: %r" % text)
    field = QQ if m.group(1) == "QQ" else GF(int(m.group(1)[1:]))
    names = tuple(s.strip() for s in m.group(2).split(",") if s.strip())
    if not names:
        raise ParseError("ring has no variables: %r" % text)
    for nm in names:
        if not _NAME.fullmatch(nm):
            raise ParseError("bad variable name %r (one letter plus digits)" % nm)
    return PolyRing(names, field)


def ring_str(ring: PolyRing) -> str:
    return "%s[%s]" % (repr(ring.field), ",".join(ring.names))


def _tokens(text: str, line=None):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError("unexpected character %r" % text[pos], line=line, col=pos + 1)
        pos = m.end()
        if m.group("num") is not None:
            out.append(("num", int(m.group("num"))))
        elif m.group("name") is not None:
            out.append(("name", m.group("name")))
        else:
            out.append(("op", m.group("op")))
    return out


def parse_poly(text: str, ring: PolyRing, line=None) -> Polynomial:
    toks = _tokens(text, line=line)
    if not toks:
        raise ParseError("empty polynomial", line=line)
    terms = {}
    F = ring.field
    i = 0
    n = len(toks)
    while i < n:
        sign = 1
        while i < n and toks[i] == ("op", "+") or i < n and toks[i] == ("op", "-"):
            if toks[i][1] == "-":
                sign = -sign
            i += 1
        if i >= n:
            raise ParseError("dangling sign", line=line)
        coeff = Fraction(sign)
        expo = [0] * ring.nvars
        saw_factor = False
        while i < n:
            kind, val = toks[i]
            if kind == "num":
                coeff *= val
                i += 1
                if i < n and toks[i] == ("op", "/"):
                    if i + 1 >= n or toks[i + 1][0] != "num":
                        raise ParseError("bad fraction", line=line)
                    if toks[i + 1][1] == 0:
                        raise ParseError("zero denominator", line=line)
                    coeff /= toks[i + 1][1]
                    i += 2
            elif kind == "name":
                vi = ring.var_index(val)
                e = 1
                i += 1
                if i < n and toks[i] == ("op", "^"):
                    if i + 1 >= n or toks[i + 1][0] != "num":
                        raise ParseError("bad exponent", line=line)
                    e = toks[i + 1][1]
                    i += 2
                expo[vi] += e
            elif (kind, val) == ("op", "*"):
                i += 1
                continue
            else:
                break
            saw_factor = True
        if not saw_factor:
            raise ParseError("expected a term", line=line)
        try:
            c = F.of(coeff)
        except ZeroDivisionError:
            raise ParseError("coefficient %s is not defined in %r" % (coeff, F), line=line) from None
        axpy(terms, 1, {tuple(expo): c}, F)
    return Polynomial(ring, terms)


def poly_str(p: Polynomial, order: Optional[TermOrder] = None) -> str:
    if p.is_zero():
        return "0"
    ring = p.ring
    F = ring.field
    items = p.sorted_terms(key=order.key if order else None)
    parts = []
    for m, c in items:
        mono = ring.mono_str(m)
        if F.char == 0:
            neg = c < 0
            a = -c if neg else c
            if mono == "1":
                body = str(a)
            elif a == 1:
                body = mono
            else:
                body = "%s*%s" % (a, mono)
            parts.append(("-" if neg else "+", body))
        else:
            body = str(c) if mono == "1" else (mono if c == 1 else "%d*%s" % (c, mono))
            parts.append(("+", body))
    first_sign, first = parts[0]
    out = ("-" if first_sign == "-" else "") + first
    for sign, body in parts[1:]:
        out += sign + body
    return out


def parse_order(text: str, ring: PolyRing) -> TermOrder:
    text = text.strip()
    if text == "lex":
        return lex(ring)
    if text == "grevlex":
        return grevlex(ring)
    m = re.fullmatch(r"(lex|grevlex)\s+(.+)", text)
    if m:
        pr = _priority(m.group(2), ring)
        return lex(ring, pr) if m.group(1) == "lex" else grevlex(ring, pr)
    m = re.fullmatch(r"weight\s+([\d,\s]+?)(?:\s+lex\s+(.+))?", text)
    if m:
        w = tuple(int(s) for s in m.group(1).replace(" ", "").split(",") if s)
        pr = _priority(m.group(2), ring) if m.group(2) else None
        return weight_order(ring, w, pr)
    m = re.fullmatch(r"diagonal\s+(\d+)x(\d+)", text)
    if m:
        return diagonal_order(ring, int(m.group(1)), int(m.group(2)))
    raise ParseError("bad order descriptor: %r" % text)


def _priority(chain: str, ring: PolyRing):
    names = [s.strip() for s in chain.split(">")]
    try:
        pr = tuple(ring.var_index(nm) for nm in names)
    except InputError as e:
        raise ParseError(str(e)) from None
    if sorted(pr) != list(range(ring.nvars)):
        raise ParseError("order chain must mention every variable exactly once")
    return pr


@dataclass
class IdealFile:
    ring: PolyRing
    gens: list
    order: Optional[TermOrder] = None


def parse_ideal_text(text: str) -> IdealFile:
    """Parse a full ideal file: directives 'ring:', optional 'order:',
    then 'ideal:' whose generator list may continue over following lines.
    Rings are standard graded, so 'weights:' is an error; rainbow color
    classes are searched for, never declared, so 'colors:' is one too."""
    ring = None
    order_text = None
    gen_text = None
    gen_line = None
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        raw = lines[i]
        line = raw.strip()
        i += 1
        if not line or line.startswith("#"):
            continue
        m = re.match(r"(ring|order|weights|colors|ideal)\s*:\s*(.*)", line)
        if not m:
            raise ParseError("expected a directive", line=i)
        key, val = m.group(1), m.group(2)
        if key == "ring":
            ring = parse_ring(val)
        elif key == "order":
            order_text = val
        elif key == "weights":
            raise ParseError("weights are not supported: rings are standard graded", line=i)
        elif key == "colors":
            raise ParseError("colors are not supported: rainbow classes are searched for", line=i)
        elif key == "ideal":
            gen_line = i
            chunks = [val]
            while i < len(lines):
                nxt = lines[i].strip()
                if not nxt or nxt.startswith("#") or re.match(r"\w+\s*:", nxt):
                    break
                chunks.append(nxt)
                i += 1
            gen_text = " ".join(chunks)
    if ring is None:
        raise ParseError("missing ring declaration")
    order = parse_order(order_text, ring) if order_text else None
    if gen_text is None:
        raise ParseError("missing ideal directive")
    gens = [parse_poly(chunk, ring, line=gen_line) for chunk in _split_gens(gen_text)]
    return IdealFile(ring=ring, gens=gens, order=order)


def _split_gens(text: str):
    out = [s.strip() for s in text.split(",")]
    return [s for s in out if s]


def ideal_file_str(f: IdealFile) -> str:
    lines = ["ring: %s" % ring_str(f.ring)]
    if f.order is not None:
        lines.append("order: %s" % f.order.descriptor(f.ring))
    lines.append("ideal: %s" % ", ".join(poly_str(g, f.order) for g in f.gens))
    return "\n".join(lines) + "\n"


def infer_ring_from_text(gens_text: str, field: Field = QQ) -> PolyRing:
    """Build a ring from the variable names appearing in an inline ideal."""
    names = sorted(
        set(_NAME.findall(re.sub(r"\d+/\d+", " ", gens_text))),
        key=lambda s: (s[0], int(s[1:]) if len(s) > 1 else -1),
    )
    if not names:
        raise ParseError("no variables found in %r" % gens_text)
    return PolyRing(tuple(names), field)
