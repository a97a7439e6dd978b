"""Command-line surface.

    golodlab golod --ideal fixtures/gorenstein3.txt --order lex
    golodlab betti --ideal "xy,yz"
    golodlab minors --shape 2x3 --t 2 --json

One subcommand per analysis; `--ideal` takes a fixture path or an inline
generator list (ring inferred from the variable names).  Plain text by
default, `--json` for machine output with sorted keys.  `--batch dir/`
runs the same job over every .txt file in the directory, one after the
other, writing one output file per input named by the input's hash; the
batch exits with the worst code of its jobs.

Exit codes: 0 success, 1 input error, 2 caps exceeded, 3 internal
inconsistency or any other unexpected error (a bug, not a property of the
input).
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import traceback
from dataclasses import dataclass, replace

from . import massey
from .analyzer import (
    AnalyzerConfig,
    _table_summary,
    _witness_json,
    fiber_invariant,
    golod_certificate,
)
from .betti import BettiTable
from .determinantal import LadderMatrix, certificate_config, verify_sparse_theorems
from .errors import CapExceededError, InconsistencyError, InputError
from .groebner import GroebnerBasis
from .koszul import quotient_betti
from .massey import build_trivial_table
from .monomial import detect_rainbow, display_sorted
from .orders import TermOrder, grevlex
from .parsing import (
    IdealFile,
    infer_ring_from_text,
    parse_ideal_text,
    parse_order,
    poly_str,
)

COMMANDS = ("gb", "initial", "betti", "fiber-inv", "rainbow", "massey", "golod", "minors")

# documented configuration caps; jobs outside them are input errors
MAX_N = 16
MAX_P = 8
MAX_T = 3


@dataclass
class Report:
    text: str
    payload: dict
    exit_code: int = 0

    def render(self, as_json: bool) -> str:
        if as_json:
            return json.dumps(self.payload, indent=2, sort_keys=True)
        return self.text


def _load_ideal(args) -> IdealFile:
    src = args.ideal
    if os.path.exists(src):
        with open(src) as fh:
            return parse_ideal_text(fh.read())
    if "ring:" in src or "ideal:" in src:
        return parse_ideal_text(src)
    ring = infer_ring_from_text(src)
    f = parse_ideal_text("ring: QQ[%s]\nideal: %s" % (",".join(ring.names), src))
    return f


def _resolve_order(args, f: IdealFile) -> TermOrder:
    if args.order:
        return parse_order(args.order, f.ring)
    return f.order if f.order is not None else grevlex(f.ring)


def _overrides(args) -> dict:
    """The caps given on the command line, by AnalyzerConfig field."""
    kw = {"N": args.N, "p_max": args.p_max}
    return {k: v for k, v in kw.items() if v is not None}


def _config(args) -> AnalyzerConfig:
    return AnalyzerConfig(**_overrides(args))


def _betti_json(B: BettiTable) -> dict:
    return {
        "entries": [
            {"i": i, "j": j, "beta": B.entries[(i, j)]}
            for (i, j) in sorted(B.entries)
        ],
        "projective_dimension": B.proj_dim(),
        "regularity": B.regularity(),
    }


def run_job(args) -> Report:
    """Run the job that the parsed arguments describe."""
    if args.command == "minors":
        if not (args.shape or args.mask):
            raise InputError("minors needs --shape RxC or --mask rows-of-01")
    elif args.ideal is None:
        raise InputError("command %s needs --ideal" % args.command)
    for name, val, low, cap in (
        ("N", args.N, 1, MAX_N),
        ("p_max", args.p_max, 2, MAX_P),
        ("t_max", args.t_max, 1, MAX_T),
    ):
        if val is not None and not (low <= val <= cap):
            raise InputError("%s must be between %d and %d" % (name, low, cap))
    if args.command == "minors":
        return _run_minors(args)
    f = _load_ideal(args)
    order = _resolve_order(args, f)
    gb = GroebnerBasis(f.ring, order, f.gens)
    header = {
        "command": args.command,
        "ring": [str(n) for n in f.ring.names],
        "order": order.descriptor(f.ring),
    }
    if args.command == "gb":
        gens = sorted(gb.gens, key=lambda p: order.key(order.leading_mono(p)), reverse=True)
        lines = [poly_str(p, order) for p in gens]
        return Report(
            "\n".join(lines),
            dict(header, generators=lines, leading_terms=[f.ring.mono_str(order.leading_mono(p)) for p in gens]),
        )
    if args.command == "initial":
        I = gb.initial_ideal()
        monos = display_sorted(I.gens)
        names = [f.ring.mono_str(m) for m in monos]
        return Report(", ".join(names), dict(header, generators=names))
    if args.command == "betti":
        B = quotient_betti(gb.quotient())
        return Report(B.grid_str(), dict(header, **_betti_json(B)))
    if args.command == "fiber-inv":
        fi = fiber_invariant(gb)
        lines = ["fiber invariant: %s" % ("yes" if fi.invariant else "no")]
        if fi.fast_path:
            lines.append("via: %s" % fi.fast_path)
        payload = dict(header, invariant=fi.invariant, fast_path=fi.fast_path)
        if not fi.invariant:
            b_ideal = quotient_betti(gb.quotient())
            b_initial = quotient_betti(gb.initial_quotient())
            lines.append("betti of R/I:\n%s" % b_ideal.grid_str())
            lines.append("betti of R/in(I):\n%s" % b_initial.grid_str())
            payload["betti_ideal"] = _betti_json(b_ideal)
            payload["betti_initial"] = _betti_json(b_initial)
        return Report("\n".join(lines), payload)
    if args.command == "rainbow":
        if not all(g.is_monomial() for g in gb.gens):
            raise InputError("rainbow detection works on monomial ideals; run `initial` first")
        det = detect_rainbow(gb.initial_ideal())
        payload = dict(header, status=det.status)
        if det.reason:
            payload["reason"] = det.reason
        if det.searched_colors is not None:
            payload["searched_colors"] = det.searched_colors
        if det.structure is not None:
            payload["colors"] = det.structure.describe()
            text = "rainbow: %s\ncolors: %s" % (
                det.status,
                " | ".join(",".join(cls) for cls in det.structure.describe()),
            )
        else:
            text = "rainbow: %s%s" % (det.status, "\n%s" % det.reason if det.reason else "")
        return Report(text, payload)
    if args.command == "massey":
        cfg = _config(args)
        outcome = build_trivial_table(gb.quotient(), p_max=cfg.p_max)
        table = outcome.table
        tbl = _table_summary(table)
        payload = dict(header, table=tbl, witness=_witness_json(outcome.witness))
        lines = []
        if tbl is not None:
            lines += [
                "homology basis: %d classes" % tbl["basis"],
                "tuples by length: %s" % tbl["tuples_by_length"],
                "verified: %s" % tbl["verified"],
            ]
        if outcome.witness is not None:
            w = outcome.witness
            lines.append(
                "nonzero %s at tuple of length %d: the trivial operation "
                "stops here" % (w["kind"], w["length"])
            )
            return Report("\n".join(lines), payload)
        if table.p_max >= 2:
            lines.append("all products and Massey products vanish through length %d" % table.p_max)
        if table.cut:
            lines.append(
                "massey tuple cap %d ran out during length %d" % (massey.TUPLE_CAP, table.p_max + 1)
            )
        return Report("\n".join(lines), payload, exit_code=2 if table.cut else 0)
    # golod
    cert = golod_certificate(gb, _config(args))
    payload = dict(header, certificate=cert.to_json())
    lines = [cert.summary(), "rule: %s" % cert.rule]
    if cert.witness is not None:
        w = _witness_json(cert.witness)
        lines.append("witness: %s" % json.dumps(w, sort_keys=True))
    if cert.serre:
        lines.append("poincare: %s" % cert.serre.get("poincare"))
        lines.append("serre bound: %s" % cert.serre.get("bound"))
    if cert.caps_exceeded:
        lines.append("caps exceeded: partial evidence")
    return Report("\n".join(lines), payload)


def _run_minors(args) -> Report:
    if args.mask:
        X = LadderMatrix.from_text(args.mask)
    else:
        m = args.shape.lower().split("x")
        if len(m) != 2 or not all(s.isdigit() for s in m):
            raise InputError("bad --shape %r, expected RxC like 2x3" % args.shape)
        X = LadderMatrix.generic(int(m[0]), int(m[1]))
    t_max = args.t_max if args.t_max is not None else 2
    cfg = replace(certificate_config(X), **_overrides(args))
    rep = verify_sparse_theorems(X, t_max=t_max, cert_config=cfg)
    lines = [
        "matrix %dx%d mask %s, %d minors, t <= %d"
        % (X.rows, X.cols, X.mask_text(), rep["minors"], t_max),
        rep["order_sampling"],
    ]
    for entry in rep["orders"]:
        lines.append(
            "  [%s] GB %s, fiber invariance %s"
            % (
                entry["order"],
                "pass" if entry["minors_are_groebner_basis"] else "FAIL",
                "pass" if entry["fiber_invariant"] else "FAIL",
            )
        )
    diag = rep["diagonal"]
    if "note" in diag:
        lines.append(diag["note"])
    else:
        lines.append("diagonal initial ideal: %s" % ", ".join(diag["initial_ideal"]))
        lines.append(
            "rainbow colors = rows: %s" % ("pass" if diag["rainbow_colors_are_rows"] else "FAIL")
        )
        for t, ok in sorted(diag["initial_of_power_equals_power_of_initial"].items()):
            lines.append("  in(I^%s) = in(I)^%s: %s" % (t[2:], t[2:], "pass" if ok else "FAIL"))
        for t, ok in sorted(diag["initial_powers_linear_resolution"].items()):
            lines.append("  in(I)^%s linear resolution: %s" % (t[2:], "pass" if ok else "FAIL"))
        for t, cert in sorted(diag["certificates"].items()):
            lines.append("  certificate %s: %s" % (t, cert["summary"]))
    lines.append("all checks pass" if rep["all_pass"] else "SOME CHECKS FAILED")
    return Report("\n".join(lines), rep, exit_code=0 if rep["all_pass"] else 3)


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    # argparse's default usage-error exit code collides with "caps exceeded"
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        sys.exit(1)


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on first use and kept: parse_args leaves
    it unchanged."""
    p = _Parser(prog="golodlab", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)
    # every field a subcommand lacks reads as unset, so a parsed namespace
    # is the job
    p.set_defaults(
        ideal=None, batch=None, order=None, shape=None, mask=None, t_max=None, N=None, p_max=None
    )
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--json", action="store_true", help="machine output, sorted keys")
        sp.add_argument("--out", help="write the report to this file (or directory for --batch)")
        if name == "minors":
            sp.add_argument("--shape", help="generic matrix RxC, e.g. 2x3")
            sp.add_argument("--mask", help="ladder pattern, rows of 0/1 joined by '/', e.g. 111/011")
            sp.add_argument("--t", type=int, dest="t_max", help="verify powers up to this exponent (<= %d)" % MAX_T)
        else:
            sp.add_argument("--ideal", help="fixture path or inline generator list")
            sp.add_argument("--batch", help="directory of fixture files; outputs named by input hash")
            sp.add_argument("--order", help="term order descriptor, e.g. 'lex', 'lex x>y', 'grevlex', 'weight 1,2 lex x>y', 'diagonal 2x3'")
        # only the commands that read a cap take its flag
        if name == "golod":
            sp.add_argument("--N", type=int, help="Poincare/Serre truncation (<= %d)" % MAX_N)
        if name in ("golod", "massey", "minors"):
            sp.add_argument("--p-max", type=int, dest="p_max", help="Massey length cap (2 to %d)" % MAX_P)
    return p


# exit code and stderr prefix by exception type
_EXITS = (
    (InputError, 1, "error: "),
    (CapExceededError, 2, "caps exceeded: "),
    (InconsistencyError, 3, "internal inconsistency (this is a bug): "),
)


def _exit_of(exc: Exception):
    """(exit code, stderr prefix) of an exception a job raised.  Any other
    exception is a bug: exit 3 and prefix None."""
    for cls, code, prefix in _EXITS:
        if isinstance(exc, cls):
            return code, prefix
    return 3, None


def _run_batch(args) -> int:
    indir = args.batch
    if not os.path.isdir(indir):
        print("error: --batch %r is not a directory" % indir, file=sys.stderr)
        return 1
    outdir = args.out or os.path.join(indir, "out")
    os.makedirs(outdir, exist_ok=True)
    files = sorted(
        os.path.join(indir, nm)
        for nm in os.listdir(indir)
        if nm.endswith(".txt") and os.path.isfile(os.path.join(indir, nm))
    )
    if not files:
        print("error: no .txt fixtures in %r" % indir, file=sys.stderr)
        return 1
    worst = 0
    for path in files:
        with open(path, "rb") as fh:
            raw = fh.read()
        tag = hashlib.sha256(raw).hexdigest()[:16]
        ext = ".json" if args.json else ".out"
        dest = os.path.join(outdir, tag + ext)
        try:
            rep = run_job(argparse.Namespace(**dict(vars(args), ideal=path)))
            body = rep.render(args.json)
            code = rep.exit_code
        except Exception as e:  # one bad input must not stop the batch
            code = _exit_of(e)[0]
            body = (
                json.dumps({"error": str(e), "exit_code": code}, indent=2, sort_keys=True)
                if args.json
                else "error: %s" % e
            )
        with open(dest, "w") as fh:
            fh.write(body + "\n")
        print("%s -> %s (exit %d)" % (os.path.basename(path), os.path.basename(dest), code))
        worst = max(worst, code)
    return worst


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.batch:
            return _run_batch(args)
        rep = run_job(args)
        body = rep.render(args.json)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(body + "\n")
        else:
            print(body)
        return rep.exit_code
    except Exception as e:
        code, prefix = _exit_of(e)
        if prefix is None:
            traceback.print_exc()
            prefix = "internal error (this is a bug): "
        print(prefix + str(e), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
