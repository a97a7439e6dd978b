"""The consistency check between a NotGolod witness and the Serre block."""

import json
from dataclasses import replace

import pytest

from golodlab import analyzer, cli, resolution

from conftest import FIXTURES

GORENSTEIN3 = str(FIXTURES / "gorenstein3.txt")


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
        ("2*x^2*y-6*x*y*z-2*x*z^2,9*x*y,-6*x^2*z", 20, "GolodUpTo", None),
    ],
)
def test_a_block_cut_by_the_budget_reports_its_own_length(ideal, budget, verdict, rule, monkeypatch, capsys):
    """Each budget stops the Serre block at t^2.  For x^2,y^2 that is below
    the gap its product witness forces at t^3, so equality is no
    contradiction; the verdict stands and the cut is reported as a cap.
    The second ideal has the monomial basis xy, x^2z, xz^2; its block
    reaches t^2 with 13 to 32 inserts."""
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
