"""Sparse generic matrices, maximal minors, powers, and the desk-scale
verification battery for them.

A LadderMatrix is an n x m sparsity pattern whose nonzero cells form a
two-sided ladder: every row is a contiguous interval of columns, both
interval endpoints move weakly right going down, and every column is a
contiguous interval of rows.  The row conditions skip empty rows, so they
do not imply the column one: 111/000/111 passes them and only the column
check rejects it.  The generic matrix over the pattern lives in a ring
with one variable per true cell, laid out row-major, which makes
diagonal_order the main-diagonal-selecting order.

A maximal minor on columns C is read off the Leibniz formula: the sum, over
the bijections sigma from the rows to C whose cells all lie in the pattern,
of sign(sigma) times the product of the cells' variables.  The cells are
distinct variables, so each bijection gives its own squarefree monomial
with coefficient +-1, nothing cancels, and a minor is zero exactly when no
such bijection exists.

verify_sparse_theorems runs, per sampled term order, the Groebner check
that the minors themselves are a basis, and under the diagonal order the
initial-ideal power equality, linear resolution of the initial powers,
fiber invariance, the rainbow-by-rows structural check, and Golod
certificates for I and its powers.  Order sampling is reported as sampling,
never as universal quantification.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .analyzer import AnalyzerConfig, fiber_invariant, golod_certificate
from .betti import has_linear_resolution
from .errors import InputError
from .groebner import GroebnerBasis
from .koszul import quotient_betti
from .monomial import MonomialIdeal, RainbowStructure, display_sorted, validate_rainbow
from .orders import diagonal_order, grevlex, lex
from .rings import PolyRing, Polynomial

__all__ = [
    "LadderMatrix",
    "parse_mask",
    "maximal_minors",
    "ideal_power",
    "certificate_config",
    "verify_sparse_theorems",
]


def parse_mask(text: str):
    """Rows of 0/1 separated by '/', e.g. '111/011'."""
    rows = text.strip().split("/")
    if not rows or any(not r for r in rows):
        raise InputError("empty mask row in %r" % text)
    if len({len(r) for r in rows}) != 1:
        raise InputError("mask rows have unequal lengths: %r" % text)
    if any(ch not in "01" for r in rows for ch in r):
        raise InputError("mask must be 0/1 characters: %r" % text)
    return tuple(tuple(ch == "1" for ch in r) for r in rows)


@dataclass(frozen=True)
class LadderMatrix:
    """Generic matrix over a two-sided-ladder sparsity pattern."""

    rows: int
    cols: int
    mask: tuple  # tuple of tuples of bool
    ring: PolyRing
    cell_var: dict  # (r, c) -> variable index, true cells only

    @classmethod
    def generic(cls, rows: int, cols: int) -> "LadderMatrix":
        return cls.from_mask(tuple(tuple(True for _ in range(cols)) for _ in range(rows)))

    @classmethod
    def from_text(cls, text: str) -> "LadderMatrix":
        return cls.from_mask(parse_mask(text))

    @classmethod
    def from_mask(cls, mask) -> "LadderMatrix":
        mask = tuple(tuple(bool(x) for x in row) for row in mask)
        rows, cols = len(mask), len(mask[0]) if mask else 0
        if rows == 0 or cols == 0:
            raise InputError("empty matrix pattern")
        if rows > cols:
            raise InputError("need rows <= cols for maximal minors by columns")
        if rows == 1:
            raise InputError(
                "the maximal minors of a one-row matrix are its entries, which "
                "are linear: give at least two rows"
            )
        _validate_ladder(mask)
        names = []
        cell_var = {}
        for r in range(rows):
            for c in range(cols):
                if mask[r][c]:
                    cell_var[(r, c)] = len(names)
                    names.append("x%d%d" % (r + 1, c + 1))
        if not names:
            raise InputError("pattern has no nonzero cells")
        ring = PolyRing(tuple(names))
        return cls(rows, cols, mask, ring, cell_var)

    def mask_text(self) -> str:
        return "/".join(
            "".join("1" if x else "0" for x in row) for row in self.mask
        )

    def row_classes(self):
        """Variable indices grouped by matrix row, for rainbow checks."""
        out = [[] for _ in range(self.rows)]
        for (r, _), v in sorted(self.cell_var.items()):
            out[r].append(v)
        return tuple(tuple(sorted(vs)) for vs in out)


def _validate_ladder(mask):
    rows = len(mask)
    cols = len(mask[0])
    spans = []
    for r in range(rows):
        cells = [c for c in range(cols) if mask[r][c]]
        if cells and cells != list(range(cells[0], cells[-1] + 1)):
            raise InputError("row %d of the pattern is not contiguous" % (r + 1))
        spans.append((cells[0], cells[-1]) if cells else None)
    prev = None
    for r, span in enumerate(spans):
        if span is None:
            continue
        if prev is not None and (span[0] < prev[0] or span[1] < prev[1]):
            raise InputError(
                "row intervals must move weakly right going down "
                "(two-sided ladder); row %d steps left" % (r + 1)
            )
        prev = span
    for c in range(cols):
        cells = [r for r in range(rows) if mask[r][c]]
        if cells and cells != list(range(cells[0], cells[-1] + 1)):
            raise InputError("column %d of the pattern is not contiguous" % (c + 1))


def maximal_minors(X: LadderMatrix):
    """All n x n minors over column selections, zero minors omitted.

    Each minor is built once by the Leibniz formula, its terms in
    lexicographic order of the bijections; the sign of a bijection is the
    parity of its inversions.
    """
    ring = X.ring
    sign = (ring.field.one, ring.field.neg(ring.field.one))
    out = []
    for cols in itertools.combinations(range(X.cols), X.rows):
        terms = {}
        for perm in itertools.permutations(range(X.rows)):
            cells = [X.cell_var.get((r, cols[k])) for r, k in enumerate(perm)]
            if None in cells:
                continue
            m = [0] * ring.nvars
            for v in cells:
                m[v] = 1
            inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
            terms[tuple(m)] = sign[inversions % 2]
        if terms:
            out.append(Polynomial(ring, terms))
    return out


def ideal_power(gens, t: int):
    """All t-fold products of the generators, redundancy allowed."""
    if t < 1:
        raise InputError("power exponent must be >= 1")
    gens = list(gens)
    out = []
    for combo in itertools.combinations_with_replacement(range(len(gens)), t):
        p = gens[combo[0]]
        for i in combo[1:]:
            p = p * gens[i]
        out.append(p)
    return out


# ---------------------------------------------------------------------------
# order sampling

MAX_LEX_ORDERS = 8  # lex orders in the sample, after the diagonal order and grevlex


def order_sample(X: LadderMatrix):
    """Diagonal order, grevlex, and lex over a deterministic family of
    variable permutations: row-major, reversed, column-major and its
    reverse, anti-diagonal within rows, rows swapped, plus fixed shuffles."""
    ring = X.ring
    n = ring.nvars
    ident = tuple(range(n))
    cells = sorted(X.cell_var)  # row-major
    by_col = sorted(cells, key=lambda rc: (rc[1], rc[0]))
    anti = sorted(cells, key=lambda rc: (rc[0], -rc[1]))
    rows_swapped = sorted(cells, key=lambda rc: (-rc[0], rc[1]))

    def perm_of(cell_seq):
        return tuple(X.cell_var[rc] for rc in cell_seq)

    perms = [
        ident,
        tuple(reversed(ident)),
        perm_of(by_col),
        tuple(reversed(perm_of(by_col))),
        perm_of(anti),
        perm_of(rows_swapped),
    ]
    for a in (3, 5, 7):
        cand = [ident[(a * i + 1) % n] for i in range(n)]
        if sorted(cand) == list(range(n)):
            perms.append(tuple(cand))
    seen = []
    for p in perms:
        if p not in seen:
            seen.append(p)
    orders = [diagonal_order(ring, X.rows, X.cols), grevlex(ring)]
    orders.extend(lex(ring, priority=p) for p in seen[:MAX_LEX_ORDERS])
    return orders


# ---------------------------------------------------------------------------
# the verification battery


def certificate_config(X: LadderMatrix) -> AnalyzerConfig:
    """The battery's certificate caps: N = 4, p_max 2 at 10 or more
    variables and 3 below, no Poincare block."""
    return AnalyzerConfig(N=4, p_max=2 if X.ring.nvars >= 10 else 3, with_serre=False)


def verify_sparse_theorems(
    X: LadderMatrix,
    t_max: int = 2,
    cert_config: Optional[AnalyzerConfig] = None,
) -> dict:
    """Desk-scale checks for maximal minors of a (ladder) generic matrix.

    Per sampled order: the minors' leading terms generate the initial ideal
    (so the minors are a Groebner basis) and the Betti numbers are fiber
    invariant.  Under the diagonal order: in(I^t) = in(I)^t for t <= t_max,
    each in(I)^t has linear resolution, in(I) is rainbow with colors the
    matrix rows, and golod_certificate(I^t) yields a Golod verdict class
    (t = 1 through the rainbow rule on the initial side, t > 1 through
    degree vanishing on the initial side, read in the weights of the
    degeneration).  Everything is exact; the order list is reported as a
    sample, universal statements stay with the theorems.

    One Groebner basis is built per ideal and per key function of the
    sampled orders, and each distinct initial ideal of I is tabulated once.
    The linear-resolution flag reads the table of R/in(I^t), which is
    in(I)^t wherever the power equality flag holds.
    """
    if X.rows > 3 or X.cols > 5:
        raise InputError("desk-scale bounds: rows <= 3, cols <= 5")
    if t_max < 1 or t_max > 3:
        raise InputError("t_max must be between 1 and 3")
    ring = X.ring
    minors = maximal_minors(X)
    report = {
        "matrix": {
            "rows": X.rows,
            "cols": X.cols,
            "mask": X.mask_text(),
            "variables": ring.nvars,
        },
        "minors": len(minors),
        "t_max": t_max,
        "order_sampling": "no order sampled; zero ideal",
        "orders": [],
        "diagonal": {"note": "no nonzero minors; zero ideal"},
        "all_pass": True,
    }
    if not minors:
        return report
    orders = order_sample(X)
    cert_config = cert_config or certificate_config(X)
    report["order_sampling"] = "sampled %d orders; no universal claim" % len(orders)
    report["diagonal"] = {}

    def fail(flag):
        if not flag:
            report["all_pass"] = False
        return bool(flag)

    diag = orders[0]
    # orders with one key function sort alike (the diagonal order and lex
    # with the identity priority both key by `tuple`), so they share a basis
    by_key = {}
    for order in orders:
        if order.key not in by_key:
            by_key[order.key] = GroebnerBasis(ring, order, minors)
    bases = [by_key[order.key] for order in orders]
    # fiber invariance compares R/I with R/in(I), so it depends on the order
    # only through in(I), which several sampled orders share: each distinct
    # initial ideal is tabulated and checked once
    fibers = {}
    for order, gb in zip(orders, bases):
        lt_ideal = MonomialIdeal.from_monos(
            ring, [order.leading_mono(f) for f in minors]
        )
        entry = {
            "order": order.descriptor(ring),
            "minors_are_groebner_basis": fail(gb.initial_ideal() == lt_ideal),
        }
        if gb.initial_ideal() not in fibers:
            fibers[gb.initial_ideal()] = fiber_invariant(gb)
        fi = fibers[gb.initial_ideal()]
        entry["fiber_invariant"] = fail(fi.invariant)
        entry["fiber_fast_path"] = fi.fast_path
        report["orders"].append(entry)

    gb_diag = bases[0]
    in_I = gb_diag.initial_ideal()
    block = report["diagonal"]
    block["initial_ideal"] = [ring.mono_str(m) for m in display_sorted(in_I.gens)]

    structure = RainbowStructure(ring, X.row_classes())
    block["rainbow_colors_are_rows"] = fail(validate_rainbow(in_I, structure))

    powers = {1: gb_diag}
    for t in range(2, t_max + 1):
        powers[t] = GroebnerBasis(ring, diag, ideal_power(minors, t))
    power_eq = {}
    linear = {}
    for t, gb_t in powers.items():
        power_eq["t=%d" % t] = fail(gb_t.initial_ideal() == in_I.power(t))
        linear["t=%d" % t] = fail(has_linear_resolution(quotient_betti(gb_t.initial_quotient())))
    block["initial_of_power_equals_power_of_initial"] = power_eq
    block["initial_powers_linear_resolution"] = linear

    certs = {}
    for t, gb_t in powers.items():
        cert = golod_certificate(gb_t, cert_config)
        fail(cert.golod_class == "Golod")
        certs["t=%d" % t] = cert.to_json()
        certs["t=%d" % t]["summary"] = cert.summary()
    block["certificates"] = certs
    return report
