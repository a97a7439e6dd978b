"""The command-line surface: golden --json bytes, shipped schemas, exit codes
and --batch."""

import hashlib
import json
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from golodlab import cli

from conftest import FIXTURES

GOLDEN = Path(__file__).resolve().parent / "golden"
SCHEMAS = Path(cli.__file__).resolve().parent / "schemas"

GORENSTEIN3_F32003 = (
    "ring: F32003[x1,x2,x3]\norder: lex x1>x2>x3\n"
    "ideal: x1^2, x1*x3, -x1*x2+x3^2, x2*x3, x2^2"
)

XYZ4 = "x^4,x^3*y,x^3*z,x^2*y^2,x^2*y*z,x^2*z^2,x*y^3,x*y^2*z,x*y*z^2,x*z^3,y^4,y^3*z,y^2*z^2,y*z^3,z^4"

TCF_CUBICS = "4*t*f^2+2*t*c*f, -c^2*f, 6*c*f^2-3*t*c*f, -3*t*c*f+9*f^3"

# the RP^2 fixture over F2, where its Betti table has two more entries
RP2_F2 = (FIXTURES / "rp2.txt").read_text().replace("QQ[", "F2[")

# golden file stem -> argv (without --json); each job but the budget case
# runs in under a second
CASES = {
    "golod_gorenstein3": ["golod", "--ideal", str(FIXTURES / "gorenstein3.txt")],
    # gorenstein3 is not Golod and not fiber invariant; its initial ideal
    # is Golod, so Golodness does not pass from in(I) to I without fiber
    # invariance
    "golod_gorenstein3_initial": ["golod", "--ideal", str(FIXTURES / "gorenstein3_initial.txt")],
    "golod_x2_y2": ["golod", "--ideal", "x^2,y^2"],
    "golod_x2": ["golod", "--ideal", "x^2"],
    "golod_x2_xy": ["golod", "--ideal", "x^2,xy"],
    "golod_xy_z2": ["golod", "--ideal", "xy-z^2"],
    "minors_2x3": ["minors", "--shape", "2x3"],
    "minors_mask_110_111": ["minors", "--mask", "110/111"],
    "betti_gorenstein3_initial": ["betti", "--ideal", str(FIXTURES / "gorenstein3_initial.txt")],
    "gb_half_coefficient": ["gb", "--ideal", "1/2*x^2-y^2, xy"],
    "golod_gorenstein3_f32003": ["golod", "--ideal", GORENSTEIN3_F32003],
    "minors_2x4": ["minors", "--shape", "2x4"],
    "minors_3x4": ["minors", "--shape", "3x4"],
    # GolodUpTo until degree vanishing on its polarization decided it
    "golod_graded_upto": ["golod", "--ideal", "2*x^2*y-6*x*y*z-2*x*z^2,9*x*y,-6*x^2*z"],
    # (x,y,z)^4: the Serre block resolves k only below x^4 y^4 z^4
    "golod_xyz4": ["golod", "--ideal", XYZ4],
    # four cubics walked by total degree, the slowest case: the Serre block
    # runs out of work budget after t^10
    "golod_tcf_cubics_budget": ["golod", "--ideal", TCF_CUBICS, "--N", "12"],
    "betti_x2_xy_y3_yz2": ["betti", "--ideal", "x^2,xy,y^3,yz^2"],
    "fiber_inv_gorenstein3": ["fiber-inv", "--ideal", str(FIXTURES / "gorenstein3.txt")],
    "massey_gorenstein3": ["massey", "--ideal", str(FIXTURES / "gorenstein3.txt")],
    # every tuple through length 4 is in the table: 17/289/4913/83521
    "massey_gorenstein3_initial": ["massey", "--ideal", str(FIXTURES / "gorenstein3_initial.txt")],
    # non-squarefree: the polarization rule runs before the direct search wins
    "golod_x3_y3_z3_xyz": ["golod", "--ideal", "x^3,y^3,z^3,x*y*z"],
    # the monic Groebner basis has non-integral coefficients (1/686, 1029/5, ...)
    "golod_graded_fractions": [
        "golod", "--ideal", "3*x^2-2*y*z+w^2,y^2-5*x*z,z^2-x*y+7*w^2,x*w", "--N", "4",
    ],
    "golod_rp2": ["golod", "--ideal", str(FIXTURES / "rp2.txt")],
    "golod_rp2_f2": ["golod", "--ideal", RP2_F2],
}

# verdict and rule each golod golden file must show
RULES = {
    "golod_gorenstein3": ("NotGolod", "HomologyProduct"),
    "golod_gorenstein3_initial": ("GolodProven", "PolarizationTransfer"),
    "golod_x2_y2": ("NotGolod", "HomologyProduct"),
    "golod_x2": ("GolodProven", "MonomialPower"),
    "golod_x2_xy": ("GolodProven", "PolarizationTransfer"),
    "golod_xy_z2": ("GolodProven", "FiberInvariantTransfer"),
    "golod_gorenstein3_f32003": ("NotGolod", "HomologyProduct"),
    "golod_graded_upto": ("GolodProven", "PolarizationTransfer"),
    "golod_xyz4": ("GolodProven", "MonomialPower"),
    "golod_tcf_cubics_budget": ("GolodProven", "DegreeVanishing"),
    "golod_graded_fractions": ("NotGolod", "HomologyProduct"),
    "golod_x3_y3_z3_xyz": ("NotGolod", "HomologyProduct"),
    "golod_rp2": ("GolodProven", "DegreeVanishing"),
    "golod_rp2_f2": ("GolodProven", "DegreeVanishing"),
}


def _validator(name):
    return Draft202012Validator(json.loads((SCHEMAS / ("%s.schema.json" % name)).read_text()))


def _with_inner(cert):
    yield cert
    for value in cert.get("evidence", {}).values():
        if isinstance(value, dict) and "verdict" in value:
            yield from _with_inner(value)


def _certificates(payload):
    if payload.get("command") == "golod":
        tops = [payload["certificate"]]
    else:
        tops = list(payload.get("diagonal", {}).get("certificates", {}).values())
    return [c for top in tops for c in _with_inner(top)]


def _run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_matches_golden_bytes_and_schema(name, capsys):
    code, out, _ = _run(CASES[name] + ["--json"], capsys)
    assert code == 0
    assert out == (GOLDEN / (name + ".json")).read_text()
    payload = json.loads(out)
    envelope = "minors_report" if name.startswith("minors") else "job_output"
    assert list(_validator(envelope).iter_errors(payload)) == []
    certs = _certificates(payload)
    cert_schema = _validator("certificate")
    for cert in certs:
        assert list(cert_schema.iter_errors(cert)) == []
    if name.startswith("minors"):
        assert payload["all_pass"] is True
        assert certs
    if name in RULES:
        top = payload["certificate"]
        assert (top["verdict"], top["rule"]) == RULES[name]
        assert top["caps_exceeded"] is (name == "golod_tcf_cubics_budget")
        if name == "golod_tcf_cubics_budget":
            assert top["serre"]["N"] == 10


@pytest.mark.parametrize("name, t4", [("golod_rp2", 361), ("golod_rp2_f2", 362)])
def test_rp2_series_meets_the_bound_in_each_characteristic(name, t4):
    """RP^2 is Golod over QQ and over F2 alike, by degree vanishing on its
    multidegrees; over F2 the two extra Betti numbers raise the series
    from t^4 on, and the Serre bound with it."""
    cert = json.loads((GOLDEN / (name + ".json")).read_text())["certificate"]
    serre = cert["serre"]
    assert (serre["N"], serre["poincare"][4], cert["rule"]) == (8, t4, "DegreeVanishing")
    assert cert["evidence"]["grading"] == "multidegree"
    assert serre["poincare"] == serre["bound"]


def test_golden_cases_cover_every_golden_file():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


@pytest.mark.parametrize(
    "ideal",
    ["1/0*x^2, y^2", "ring: F3[x,y]\nideal: 1/3*x^2, y^2"],
)
def test_bad_denominator_is_an_input_error(ideal, capsys):
    code, out, err = _run(["golod", "--ideal", ideal], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "(line 2)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field", ["F4", "F0", "F1", "F4294967311"])
def test_malformed_modulus_is_an_input_error(field, capsys):
    code, out, err = _run(["gb", "--ideal", "ring: %s[x,y]\nideal: x^2" % field], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: bad ring declaration: ")
    assert "Traceback" not in err


def test_unexpected_exception_exits_3(monkeypatch, capsys):
    def boom(spec):
        raise ZeroDivisionError("unexpected")

    monkeypatch.setattr(cli, "run_job", boom)
    code, out, err = _run(["golod", "--ideal", "x^2"], capsys)
    assert code == 3
    assert "internal error" in err and "unexpected" in err


def test_batch_runs_every_input_and_returns_worst_code(tmp_path, capsys):
    inputs = {
        "a.txt": "ring: QQ[x,y]\nideal: x^2, y^2\n",
        "b.txt": "ring: QQ[x,y]\nideal: x^2, x*y\n",
        "bad.txt": "ring: QQ[x,y]\nideal: 1/0*x^2\n",
    }
    for nm, text in inputs.items():
        (tmp_path / nm).write_text(text)
    outdir = tmp_path / "out"
    code, out, _ = _run(["golod", "--batch", str(tmp_path), "--out", str(outdir), "--json"], capsys)
    assert code == 1
    codes = {}
    for nm, text in inputs.items():
        tag = hashlib.sha256(text.encode()).hexdigest()[:16]
        payload = json.loads((outdir / (tag + ".json")).read_text())
        codes[nm] = payload.get("exit_code", 0)
        assert "%s -> %s.json" % (nm, tag) in out
    assert codes == {"a.txt": 0, "b.txt": 0, "bad.txt": 1}
    assert sorted(p.name for p in outdir.iterdir()) == sorted(
        hashlib.sha256(t.encode()).hexdigest()[:16] + ".json" for t in inputs.values()
    )


def test_parser_built_once_serves_every_call(capsys):
    """main keeps one parser for the process; a usage error (exit 1) and
    the jobs after it read exactly as they do with a fresh parser."""
    jobs = [
        ["golod", "--bogus"],
        ["golod", "--ideal", "x^2,xy", "--json"],
        ["betti", "--ideal", "x^2,y^2"],
        ["golod", "--ideal", "x^2,xy", "--json"],
    ]

    def run(argv):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
        out = capsys.readouterr()
        return code, out.out, out.err

    cli._build_parser.cache_clear()
    kept = [run(argv) for argv in jobs]
    fresh = []
    for argv in jobs:
        cli._build_parser.cache_clear()
        fresh.append(run(argv))
    assert kept == fresh
    assert [code for code, _, _ in kept] == [1, 0, 0, 0]
    assert kept[0][2].startswith("usage: golodlab") and "--bogus" in kept[0][2]
    assert kept[1] == kept[3]
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize("command", ["golod", "betti", "massey", "fiber-inv"])
def test_inhomogeneous_ideal_is_rejected_by_the_quotient(command, capsys):
    code, out, err = _run([command, "--ideal", "x^2+y"], capsys)
    assert (code, out, err) == (1, "", "error: R/I needs a homogeneous ideal\n")


@pytest.mark.parametrize("command", ["golod", "betti", "initial", "massey", "fiber-inv"])
def test_unit_ideal_is_rejected_with_one_message(command, capsys):
    """x+1, x generate the whole ring: the reduced basis is {1}."""
    code, out, err = _run([command, "--ideal", "ring: QQ[x,y]\nideal: x+1, x"], capsys)
    assert (code, out, err) == (1, "", "error: unit generator: the ideal is the whole ring\n")


def test_unit_ideal_basis_is_printed_by_gb(capsys):
    code, out, err = _run(["gb", "--ideal", "ring: QQ[x,y]\nideal: x+1, x"], capsys)
    assert (code, out, err) == (0, "1\n", "")


@pytest.mark.parametrize("command", ["gb", "initial"])
def test_inhomogeneous_ideal_needs_no_quotient_for_gb_and_initial(command, capsys):
    code, out, err = _run([command, "--ideal", "x^2+y"], capsys)
    assert code == 0 and out and err == ""


# the commands that read each cap flag; no other command takes it (minors
# takes no --N: its certificates run without a Serre block)
CAP_READERS = {"--N": ("golod",), "--p-max": ("golod", "massey", "minors")}


@pytest.mark.parametrize("flag", sorted(CAP_READERS))
@pytest.mark.parametrize("command", cli.COMMANDS)
def test_cap_flags_only_on_the_commands_that_read_them(command, flag, capsys):
    """A cap the job would ignore is a usage error (exit 1), not exit 0."""
    try:
        cli._build_parser().parse_args([command, flag, "2"])
        code = 0
    except SystemExit as e:
        code = e.code
    err = capsys.readouterr().err
    if command in CAP_READERS[flag]:
        assert (code, err) == (0, "")
    else:
        assert code == 1 and "unrecognized arguments: %s 2" % flag in err


def test_one_row_minors_name_the_input(capsys):
    for argv in (["minors", "--shape", "1x5"], ["minors", "--mask", "0111"]):
        code, out, err = _run(argv, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: the maximal minors of a one-row matrix are its entries")


def test_minors_takes_shape_or_mask_not_both(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["minors", "--shape", "3x5", "--mask", "11/11", "--json"])
    out = capsys.readouterr()
    assert (exc.value.code, out.out) == (1, "")
    assert "error: argument --mask: not allowed with argument --shape" in out.err


def test_minors_of_a_pattern_without_a_transversal_are_the_zero_ideal(capsys):
    code, out, _ = _run(["minors", "--mask", "000/111", "--json"], capsys)
    rep = json.loads(out)
    assert (code, rep["minors"], rep["all_pass"]) == (0, 0, True)
    assert rep["diagonal"] == {"note": "no nonzero minors; zero ideal"}
    # no order is sampled for the zero ideal, and none is claimed
    assert (rep["order_sampling"], rep["orders"]) == ("no order sampled; zero ideal", [])


@pytest.mark.parametrize(
    "argv",
    [
        ["golod", "--ideal", "2*x^2*y-6*x*y*z-2*x*z^2,9*x*y,-6*x^2*z"],
        ["massey", "--ideal", str(FIXTURES / "gorenstein3.txt")],
        ["minors", "--shape", "2x3"],
    ],
)
def test_p_max_below_two_is_an_input_error(argv, capsys):
    """Length 1 checks no product, so it could only report that products
    vanish (gorenstein3 has a nonzero one)."""
    code, out, err = _run(argv + ["--p-max", "1", "--json"], capsys)
    assert (code, out, err) == (1, "", "error: p_max must be between 2 and 8\n")


@pytest.mark.parametrize(
    "ideal, expected",
    [
        ("x*y,y*z", {"status": "found", "colors": [["x", "z"], ["y"]], "searched_colors": 2}),
        ("x^2,y*z", {"status": "not_found", "reason": "generators not squarefree"}),
        ("x*y,z^3", {"status": "not_found", "reason": "generators not equigenerated"}),
        (
            "x*y,y*z,x*z",
            {
                "status": "not_found",
                "reason": "no 2-class rainbow coloring exists",
                "searched_colors": 2,
            },
        ),
        (
            "a*b*c*d*e*f*g",
            {
                "status": "bound_exceeded",
                "reason": "would need 7 classes, searched up to 6",
                "searched_colors": 6,
            },
        ),
    ],
)
def test_rainbow_reports_each_status(ideal, expected, capsys):
    code, out, err = _run(["rainbow", "--ideal", ideal, "--json"], capsys)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert list(_validator("job_output").iter_errors(payload)) == []
    assert {k: v for k, v in payload.items() if k not in ("command", "ring", "order")} == expected
    code, out, _ = _run(["rainbow", "--ideal", ideal], capsys)
    lines = ["rainbow: %s" % expected["status"]]
    if "colors" in expected:
        lines.append("colors: " + " | ".join(",".join(c) for c in expected["colors"]))
    else:
        lines.append(expected["reason"])
    assert (code, out) == (0, "\n".join(lines) + "\n")


def test_rainbow_needs_a_monomial_ideal(capsys):
    code, out, err = _run(["rainbow", "--ideal", "x*y-z^2", "--json"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: rainbow detection works on monomial ideals; run `initial` first\n"


@pytest.mark.parametrize("cap, finished", [(288, 1), (299, 2), (358, 3)])
def test_massey_prints_the_lengths_a_cut_search_finished(cap, finished, monkeypatch, capsys):
    """gorenstein3_initial visits 289 pairs, 66 triples and 4 quadruples.
    Each cap runs out during length finished + 1: the command prints the
    table through `finished`, names the cap and exits 2."""
    from golodlab import massey

    monkeypatch.setattr(massey, "TUPLE_CAP", cap)
    argv = ["massey", "--ideal", str(FIXTURES / "gorenstein3_initial.txt")]
    code, out, err = _run(argv + ["--json"], capsys)
    assert (code, err) == (2, "")
    payload = json.loads(out)
    assert list(_validator("job_output").iter_errors(payload)) == []
    assert payload["witness"] is None
    table = payload["table"]
    counts = {str(p): 17 ** p for p in range(1, finished + 1)}
    assert (table["p_max"], table["tuples_by_length"], table["verified"]) == (finished, counts, True)
    assert table["solved_tuples"] == (0 if finished == 1 else 2)
    code, out, err = _run(argv, capsys)
    lines = ["homology basis: 17 classes", "tuples by length: %s" % counts, "verified: True"]
    if finished >= 2:
        lines.append("all products and Massey products vanish through length %d" % finished)
    lines.append("massey tuple cap %d ran out during length %d" % (cap, finished + 1))
    assert (code, out, err) == (2, "\n".join(lines) + "\n", "")
