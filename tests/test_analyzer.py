"""The consistency check between a NotGolod witness and the Serre block."""

import json
from dataclasses import replace

import pytest

from golodlab import analyzer, cli

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
