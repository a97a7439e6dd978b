"""Per-layer tracing from outside the program.

`install()` wraps the public functions named in SPANS with timing spans and
counts a few quantities at job end.  Nothing under src/ changes: each
function is replaced on its class, or, for a module-level function, in every
golodlab module that holds it, because `analyzer`, `cli` and `determinantal`
import functions by name and patching only the defining module would miss
their calls.

A span's self time is its duration minus the durations of the spans it
directly contains, so nested and recursive spans (golod_certificate builds
inner certificates through itself) are not counted twice.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict

SPANS = (
    "cli.run_job",
    "cli.Report.render",
    "linalg.Eliminator.insert",
    "linalg.kernel_basis",
    "linalg.solve_columns",
    "groebner.buchberger",
    "groebner.QuotientRing.mult_mono",
    "monomial.polarize",
    "monomial.detect_rainbow",
    "taylor.taylor_betti",
    "koszul.koszul_betti",
    "koszul.KoszulComplex.homology",
    "koszul.KoszulComplex.betti_entry",
    "koszul.KoszulComplex.boundary_preimage",
    "massey.build_trivial_table",
    "massey.MasseyTable.verify",
    "massey.build_rainbow_table",
    "resolution.poincare_coeffs",
    "resolution.serre_bound",
    "analyzer.golod_certificate",
    "analyzer.fiber_invariant",
    "determinantal.verify_sparse_theorems",
    "determinantal.ideal_power",
    "determinantal.order_sample",
)

# "none" counts GolodUpTo certificates, where no rule fired
RULES = (
    "HomologyProduct",
    "MasseyProduct",
    "RainbowLinear",
    "MonomialPower",
    "FiberInvariantTransfer",
    "PolarizationTransfer",
    "SerreGap",
    "none",
)

COUNTS = (
    "fields.ops",
    "groebner.QuotientRing.mult_cache",
    "koszul.columns_charged",
    "massey.tuples_stored",
) + tuple("analyzer.rule.%s" % r for r in RULES)

FIELD_OPS = ("add", "sub", "mul", "neg", "inv", "div")


def metric_names():
    """Every per-job metric a traced job reports, in a fixed order."""
    out = []
    for s in SPANS:
        out += [s + ".calls", s + ".self_s"]
    return out + list(COUNTS)


class Tracer:
    """Span totals and counts of the current job."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []  # [start, time covered by direct children]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.live = defaultdict(list)  # kind -> objects created in this job

    def wrap(self, name, fn, on_result=None):
        clock, stack = self.clock, self.stack
        calls, self_s = self.calls, self.self_s

        def span(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                dur = clock() - frame[0]
                self_s[name] += dur - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += dur
            if on_result is not None:
                on_result(result)
            return result

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        return span

    def count(self, name, fn):
        counts = self.counts

        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    def register(self, kind, cls):
        """Record every instance of `cls` created during a job."""
        init, live = cls.__init__, self.live[kind]

        def __init__(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            live.append(obj)

        cls.__init__ = __init__

    def begin_job(self):
        self.stack.clear()
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()
        for objs in self.live.values():
            objs.clear()

    def end_job(self) -> dict:
        live = self.live
        self.counts["groebner.QuotientRing.mult_cache"] = sum(len(q._mult) for q in live["quot"])
        self.counts["koszul.columns_charged"] = sum(k._spent for k in live["koszul"])
        self.counts["massey.tuples_stored"] = sum(len(t.values) for t in live["massey"])
        out = {}
        for s in SPANS:
            out[s + ".calls"] = self.calls.get(s, 0)
            out[s + ".self_s"] = self.self_s.get(s, 0.0)
        for c in COUNTS:
            out[c] = self.counts.get(c, 0)
        for objs in live.values():
            objs.clear()
        return out


def _count_rule(tracer):
    def on_result(cert):
        tracer.counts["analyzer.rule.%s" % (cert.rule or "none")] += 1

    return on_result


def install() -> Tracer:
    """Patch the loaded golodlab modules; returns the tracer to read."""
    mods = {
        name.split(".", 1)[1] if "." in name else "": mod
        for name, mod in sys.modules.items()
        if name == "golodlab" or name.startswith("golodlab.")
    }
    tracer = Tracer()
    for spec in SPANS:
        modname, *path = spec.split(".")
        owner = mods[modname]
        for attr in path[:-1]:
            owner = getattr(owner, attr)
        orig = getattr(owner, path[-1])
        hook = _count_rule(tracer) if spec == "analyzer.golod_certificate" else None
        wrapped = tracer.wrap(spec, orig, hook)
        if len(path) > 1:
            setattr(owner, path[-1], wrapped)
            continue
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapped)
    field_cls = mods["fields"].Field
    for op in FIELD_OPS:
        setattr(field_cls, op, tracer.count("fields.ops", getattr(field_cls, op)))
    tracer.register("quot", mods["groebner"].QuotientRing)
    tracer.register("koszul", mods["koszul"].KoszulComplex)
    tracer.register("massey", mods["massey"].MasseyTable)
    return tracer
