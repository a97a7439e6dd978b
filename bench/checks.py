"""Output checks on CLI --json payloads, and the decided-certificate count."""
from __future__ import annotations

import json
from pathlib import Path

DECIDED = ("GolodProven", "NotGolod")


class Schemas:
    """The JSON schemas the package ships, keyed by file stem."""

    def __init__(self, src):
        from jsonschema import Draft202012Validator

        folder = Path(src) / "golodlab" / "schemas"
        self.validators = {
            p.name.split(".")[0]: Draft202012Validator(json.loads(p.read_text()))
            for p in folder.glob("*.schema.json")
        }

    def errors(self, name, payload):
        return [
            "%s schema: %s" % (name, e.message)
            for e in self.validators[name].iter_errors(payload)
        ]


def certificates(command, payload):
    """The top-level Golod certificates of one job's output."""
    if command == "golod":
        return [payload["certificate"]]
    if command == "minors":
        return list(payload.get("diagonal", {}).get("certificates", {}).values())
    return []


def _with_inner(cert):
    yield cert
    for value in cert.get("evidence", {}).values():
        if isinstance(value, dict) and "verdict" in value:
            yield from _with_inner(value)


def certificate_errors(cert):
    """Poincare block equals the Serre bound on (evidence of) a Golod ring;
    a SerreGap witness names the first coefficient where they differ."""
    errs = []
    serre = cert.get("serre") or {}
    poincare, bound = serre.get("poincare"), serre.get("bound")
    if cert["verdict"] in ("GolodProven", "GolodUpTo") and poincare is not None:
        if poincare != bound:
            errs.append("%s certificate with poincare != bound" % cert["verdict"])
    if cert["rule"] == "SerreGap":
        gaps = [i for i, (p, b) in enumerate(zip(poincare or [], bound or [])) if p != b]
        w = cert.get("witness") or {}
        if not gaps or w.get("coefficient") != gaps[0]:
            errs.append("SerreGap witness does not name the first gap")
        elif (w.get("poincare"), w.get("bound")) != (poincare[gaps[0]], bound[gaps[0]]):
            errs.append("SerreGap witness coefficients differ from the block")
    return errs


def output_errors(command, payload, schemas):
    """Every check on one output that does not need another program."""
    if command == "minors":
        errs = schemas.errors("minors_report", payload)
        if payload.get("all_pass") is not True:
            errs.append("minors report with all_pass false")
    else:
        errs = schemas.errors("job_output", payload)
    for cert in certificates(command, payload):
        for c in _with_inner(cert):
            errs += schemas.errors("certificate", c)
            errs += certificate_errors(c)
    return errs


def is_decided(cert):
    return cert["verdict"] in DECIDED and not cert["caps_exceeded"]


def gb_errors(ring_decl, gens, program_gens):
    """Compare the program's reduced Groebner basis (grevlex in the declared
    variable order) with sympy's."""
    import sympy

    field_name, names = ring_decl.rstrip("]").split("[")
    syms = sympy.symbols(names.split(","))
    local = dict(zip(names.split(","), syms))
    opts = {"domain": "QQ"} if field_name == "QQ" else {"modulus": int(field_name[1:])}

    def canonical(exprs):
        return sorted(tuple(sorted(sympy.Poly(e, *syms, **opts).monic().terms())) for e in exprs)

    def parse(texts):
        return [sympy.parse_expr(t.replace("^", "**"), local_dict=local) for t in texts]

    ref = sympy.groebner(parse(gens), *syms, order="grevlex", **opts)
    if canonical(ref.exprs) != canonical(parse(program_gens)):
        return ["Groebner basis differs from sympy.groebner"]
    return []
