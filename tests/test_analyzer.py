"""The consistency check between a NotGolod witness and the Serre block,
and the Serre-gap verdict."""

import json
from dataclasses import replace
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from golodlab import analyzer, cli, massey, resolution

from conftest import FIXTURES

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


@pytest.mark.parametrize(
    "ideal, budget, verdict, rule",
    [
        ("x^2,y^2", 6, "NotGolod", "HomologyProduct"),
        ("2*x^2*y-6*x*y*z-2*x*z^2,9*x*y,-6*x^2*z", 12, "GolodUpTo", None),
    ],
)
def test_a_block_cut_by_the_budget_reports_its_own_length(ideal, budget, verdict, rule, monkeypatch, capsys):
    """Each budget stops the Serre block at t^2.  For x^2,y^2 that is below
    the gap its product witness forces at t^3, so equality is no
    contradiction; the verdict stands and the cut is reported as a cap.
    The second ideal has the monomial basis xy, x^2z, xz^2; its block
    reaches t^2 with 10 to 17 inserts, and t^8 with 21."""
    monkeypatch.setattr(resolution, "POINCARE_BUDGET", budget)
    code, cert, _ = _golod([ideal], capsys)
    assert code == 0
    assert (cert["verdict"], cert["rule"], cert["caps_exceeded"]) == (verdict, rule, True)
    serre = cert["serre"]
    assert serre["N"] == 2 and len(serre["poincare"]) == len(serre["bound"]) == 3
    assert serre["poincare"] == serre["bound"]
    if verdict == "GolodUpTo":
        assert cert["evidence"]["serre_equality_to"] == 2
        assert cli.main(["golod", "--ideal", ideal]) == 0
        assert capsys.readouterr().out.startswith("GolodUpTo(2)\n")


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
