"""Maximal minors of ladder matrices against sympy's determinant, and the
ladder checks on a mask."""

import itertools

import pytest
import sympy

from golodlab.determinantal import LadderMatrix, maximal_minors
from golodlab.errors import InputError


def sympy_minors(X):
    """The nonzero maximal minors, column selections in lexicographic
    order, each as {exponent tuple: coefficient}."""
    syms = sympy.symbols(X.ring.names)
    M = sympy.Matrix(
        X.rows, X.cols, lambda r, c: syms[X.cell_var[(r, c)]] if (r, c) in X.cell_var else 0
    )
    out = []
    for cols in itertools.combinations(range(X.cols), X.rows):
        d = sympy.expand(M.extract(list(range(X.rows)), list(cols)).det())
        if d != 0:
            terms = sympy.Poly(d, *syms).as_dict()
            out.append({tuple(int(e) for e in m): int(c) for m, c in terms.items()})
    return out


@pytest.mark.parametrize(
    "X",
    [LadderMatrix.generic(r, c) for r, c in ((2, 2), (2, 3), (3, 4), (3, 5))]
    + [LadderMatrix.from_text(m) for m in ("110/111", "100/011", "10/01", "000/111")],
    ids=lambda X: X.mask_text(),
)
def test_maximal_minors_match_sympy_determinants(X):
    # 000/111 has no transversal, so both sides are []
    assert [f.terms for f in maximal_minors(X)] == sympy_minors(X)


@pytest.mark.parametrize(
    "mask, message",
    [
        ("101/111", "row 1 of the pattern is not contiguous"),
        (
            "011/110",
            "row intervals must move weakly right going down (two-sided ladder); "
            "row 2 steps left",
        ),
        # every row check passes: the empty row is skipped
        ("111/000/111", "column 1 of the pattern is not contiguous"),
    ],
)
def test_ladder_checks_name_the_fault(mask, message):
    with pytest.raises(InputError) as exc:
        LadderMatrix.from_text(mask)
    assert str(exc.value) == message
