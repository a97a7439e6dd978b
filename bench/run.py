"""golodlab benchmark: seeded CLI job corpora in a closed loop.

    python3 bench/run.py --workload monomial-golod --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Run from the root of a checkout.  One client sends one job at a time to one
long-lived worker process, which imports golodlab once and runs each job
with `golodlab.cli.main([..., "--json"])`.  A job that overruns its budget
is timed at the budget; the worker is killed and restarted, and the restart
counts towards set-up time.  The last stdout line is the JSON result; the
lines before it are a readable report.  `--trace 1` patches every layer
with spans (see spans.py) and reports per-layer numbers instead of the
end-to-end ones.  `--workload all` runs every workload untraced and traced
and prints each report and the tracing overhead.
"""
from __future__ import annotations

import argparse
import json
import select
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import jobs  # noqa: E402
import measure  # noqa: E402
import spans  # noqa: E402

BUDGET_S = 10.0  # per job
SETUP_STARTS = 7  # worker starts measured for setup_s
HARD_STOP_S = 140.0  # the first pass stops here even if unfinished
PROBE_EVERY_S = 0.25  # host probe interval during the timed loop

# (metric, unit) per end-to-end metric, in report order
END_TO_END = (
    ("setup_s", "s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("jobs_per_s", "1/s"),
    ("decided_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)

# per-layer metrics that must be nonzero on a workload, and predicted
# bypasses that must read zero, for the span coverage check
_EVERYWHERE = (
    "cli.run_job.calls",
    "cli.Report.render.calls",
    "fields.ops",
    "linalg.Eliminator.insert.calls",
    "analyzer.golod_certificate.calls",
    "koszul.KoszulComplex.betti_entry.calls",
    "koszul.columns_charged",
)
_CERTIFIED = _EVERYWHERE + (
    "linalg.kernel_basis.calls",
    "koszul.KoszulComplex.homology.calls",
)
_GRADED = _CERTIFIED + (
    "groebner.buchberger.calls",
    "groebner.QuotientRing.mult_mono.calls",
    "groebner.QuotientRing.mult_cache",
    "koszul.koszul_betti.calls",
    "taylor.taylor_betti.calls",
    "resolution.poincare_coeffs.calls",
    "analyzer.fiber_invariant.calls",
    "massey.build_trivial_table.calls",
    "linalg.solve_columns.calls",
)
EXPECT_NONZERO = {
    "monomial-golod": _CERTIFIED + (
        "linalg.solve_columns.calls",
        "groebner.QuotientRing.mult_cache",
        "monomial.polarize.calls",
        "monomial.detect_rainbow.calls",
        "taylor.taylor_betti.calls",
        "koszul.koszul_betti.calls",
        "koszul.KoszulComplex.boundary_preimage.calls",
        "massey.build_trivial_table.calls",
        "massey.MasseyTable.verify.calls",
        "massey.build_rainbow_table.calls",
        "massey.tuples_stored",
        "resolution.poincare_coeffs.calls",
        "analyzer.rule.HomologyProduct",
        "analyzer.rule.RainbowLinear",
        "analyzer.rule.MonomialPower",
        "analyzer.rule.PolarizationTransfer",
        "analyzer.rule.none",
    ),
    "graded-golod": _GRADED + ("analyzer.rule.FiberInvariantTransfer",),
    "graded-golod-fp": _GRADED + ("analyzer.rule.FiberInvariantTransfer",),
    "minors": _EVERYWHERE + (
        "groebner.buchberger.calls",
        "groebner.QuotientRing.mult_mono.calls",
        "taylor.taylor_betti.calls",
        "koszul.koszul_betti.calls",
        "analyzer.fiber_invariant.calls",
        "determinantal.verify_sparse_theorems.calls",
        "determinantal.ideal_power.calls",
        "determinantal.order_sample.calls",
    ),
}
EXPECT_ZERO = {
    "minors": ("resolution.poincare_coeffs.calls", "resolution.serre_bound.calls"),
}


class Worker:
    """One worker process at a time; restarted after an overrun.  Every
    start is timed and followed by a host probe, so `setup_s` holds start
    times at the reference host speed."""

    def __init__(self, src: Path, trace: bool):
        self.cmd = [sys.executable, str(HERE / "worker.py"), str(src), "1" if trace else "0"]
        self.proc = None
        self.setup_s = []
        self.probes = []

    def start(self):
        self.stop()
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            self.cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1
        )
        line = self._read(60.0)
        if line is None or not json.loads(line).get("ready"):
            self.stop()
            raise RuntimeError("worker did not start")
        raw = time.perf_counter() - t0
        self.probe()
        self.setup_s.append(measure.normalized(raw, self.probes, len(self.probes) - 1))

    def probe(self):
        self.proc.stdin.write('{"probe": true}\n')
        self.proc.stdin.flush()
        self.probes.append(json.loads(self._read(60.0))["probe_s"])

    def _read(self, timeout):
        ready, _, _ = select.select([self.proc.stdout], [], [], max(timeout, 0.0))
        if not ready:
            return None
        return self.proc.stdout.readline() or None

    def run(self, argv, budget=BUDGET_S):
        """(reply or None on overrun, wall seconds, golodlab stack at kill)."""
        t0 = time.perf_counter()
        self.proc.stdin.write(json.dumps({"argv": list(argv)}) + "\n")
        self.proc.stdin.flush()
        line = self._read(budget)
        wall = time.perf_counter() - t0
        if line is not None:
            return json.loads(line), wall, None
        if self.proc.poll() is not None:
            # the worker died mid-job: an internal error, not an overrun
            self.start()
            return {"code": 3, "out": "", "err": "worker exited", "rss_kb": 0}, wall, None
        stack = []
        self.proc.send_signal(signal.SIGUSR1)
        late = self._read(2.0)
        if late is not None:
            stack = json.loads(late).get("stack", [])
        self.start()
        return None, budget, stack

    def stop(self):
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        proc.stdin.close()
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def _schedule(corpus, times, t_start, deadline):
    """Jobs in corpus order, pass after pass.  The first pass runs every
    job (up to HARD_STOP_S); later passes skip a job whose fastest time so
    far would end past the deadline, and stop when none fits."""
    for job in corpus:
        if time.perf_counter() - t_start > HARD_STOP_S:
            return
        yield job
    while True:
        ran = False
        for job in corpus:
            if time.perf_counter() + min(times[job.key]) <= deadline:
                ran = True
                yield job
        if not ran:
            return


def _layer(stack):
    """The innermost public golodlab function on an overrun job's stack."""
    public = [f for f in stack if not f.rsplit(".", 1)[-1].startswith("_")]
    return public[-1] if public else (stack[-1] if stack else "unknown")


def run_workload(workload, seed, seconds, trace, root):
    src = root / "src"
    corpus = jobs.build(workload, seed, root)
    schemas = checks.Schemas(src)
    worker = Worker(src, trace)
    for _ in range(SETUP_STARTS):
        worker.start()
    failures = []  # (key, reason) per failed job
    wrong = []  # (key, reason) per incorrect output
    overruns = []  # (key, layer)
    try:
        warm, _, _ = worker.run(jobs.WARMUP.argv)
        if warm is None or warm["code"] != 0:
            raise RuntimeError("warm-up job failed")
        raw_times = defaultdict(list)
        timed = []  # (key, raw seconds, index of the probe before the job)
        first_out = {}
        layer_sums = defaultdict(float)
        rss_kb = warm["rss_kb"]
        worker.probe()
        t_start = last_probe = time.perf_counter()
        deadline = t_start + seconds
        for job in _schedule(corpus, raw_times, t_start, deadline):
            before = len(worker.probes) - 1
            reply, wall, stack = worker.run(job.argv)
            raw_times[job.key].append(wall)
            if reply is None:
                overruns.append((job.key, _layer(stack)))
                failures.append((job.key, measure.classify(None, overrun=True)))
                continue
            timed.append((job.key, wall, before))
            if time.perf_counter() - last_probe >= PROBE_EVERY_S:
                worker.probe()
                last_probe = time.perf_counter()
            rss_kb = max(rss_kb, reply["rss_kb"])
            if trace:
                for name, value in reply.get("trace", {}).items():
                    layer_sums[name] += value
            errs = []
            if reply["code"] == 0:
                if first_out.setdefault(job.key, reply["out"]) != reply["out"]:
                    errs.append("repeat gave different JSON")
            elif reply["code"] in (1, 3):
                wrong.append((job.key, "exit %d on a valid input" % reply["code"]))
            why = measure.classify(reply["code"], check_errors=errs)
            if why:
                failures.append((job.key, why))
                wrong += [(job.key, e) for e in errs]
        worker.probe()
        elapsed = time.perf_counter() - t_start
        # outside the timed region: schema and certificate checks on one
        # output per input, and graded Groebner bases against sympy
        certs = []
        command = {job.key: job.argv[0] for job in corpus}
        checked = []
        for key, out in first_out.items():
            payload = json.loads(out)
            errs = checks.output_errors(command[key], payload, schemas)
            wrong += [(key, e) for e in errs]
            checked += [(key, "output check: " + e) for e in errs]
            certs += checks.certificates(command[key], payload)
        gb_checked = set()
        for job in corpus:
            if job.gb_check and job.gb_check not in gb_checked:
                gb_checked.add(job.gb_check)
                reply, _, _ = worker.run(("gb", "--ideal", job.argv[2]))
                if reply is None or reply["code"] != 0:
                    errs = ["gb job failed"]
                else:
                    errs = checks.gb_errors(*job.gb_check, json.loads(reply["out"])["generators"])
                wrong += [(job.key, e) for e in errs]
                checked += [(job.key, "output check: " + e) for e in errs]
    finally:
        worker.stop()

    attempted = sum(len(v) for v in raw_times.values())
    # an input whose output fails a check fails every time it ran
    failures += [(k, why) for k, why in checked for _ in raw_times[k]]
    # each input's time: the median of its runs, each scaled to the
    # reference host speed by the probes taken around it; an overrun counts
    # as the budget
    times = defaultdict(list)
    for key, wall, before in timed:
        times[key].append(measure.normalized(wall, worker.probes, before))
    for key, _ in overruns:
        times[key].append(BUDGET_S)
    per_input = {k: statistics.median(v) for k, v in times.items()}
    tail_value, tail_p, tail_n = measure.tail(per_input.values())
    decided = sum(1 for c in certs if checks.is_decided(c))
    result = {
        "workload": workload,
        "seed": seed,
        "inputs": len(per_input),
        "attempted": attempted,
        "failed": len(failures),
        "correct": not wrong,
        "elapsed_s": elapsed,
        "passes": attempted / len(corpus),
        "setup_s": statistics.median(worker.setup_s),
        "setup_samples": len(worker.setup_s),
        "job_p50_s": statistics.median(per_input.values()),
        "job_tail_s": tail_value,
        "job_tail_percentile": tail_p,
        "job_tail_samples": tail_n,
        "jobs_per_s": len(per_input) / sum(per_input.values()),
        "fail_ratio": len(failures) / max(attempted, 1),
        "decided_ratio": decided / len(certs) if certs else 0.0,
        "decided": decided,
        "certificates": len(certs),
        "peak_rss_mb": rss_kb / 1024.0,
        "host.calib_s": statistics.median(worker.probes),
        "probes": len(worker.probes),
        "calib_before_after": (worker.probes[SETUP_STARTS], worker.probes[-1]),
        "failures": failures,
        "overruns": overruns,
        "gb_checked": len(gb_checked),
        "per_input": per_input,
    }
    if trace:
        done = attempted - len(overruns)
        result["layers"] = {name: layer_sums.get(name, 0) / max(done, 1) for name in spans.metric_names()}
        result["coverage"] = coverage_errors(workload, result["layers"])
    return result


def coverage_errors(workload, layers):
    errs = ["%s is 0" % m for m in EXPECT_NONZERO.get(workload, ()) if not layers.get(m)]
    errs += ["%s is %s, predicted 0" % (m, layers[m]) for m in EXPECT_ZERO.get(workload, ()) if layers.get(m)]
    return errs


def per_layer_metrics(result):
    out = {name: result["layers"][name] for name in spans.metric_names()}
    out["host.calib_s"] = result["host.calib_s"]
    out["trace.jobs_per_s"] = result["jobs_per_s"]
    return out


def report_lines(r, trace):
    lines = [
        "workload %s seed %d%s: %d inputs, %d jobs in %.1f s (%.2f passes); "
        "times are scaled to the reference host speed"
        % (r["workload"], r["seed"], " traced" if trace else "", r["inputs"], r["attempted"], r["elapsed_s"], r["passes"]),
        "  %-16s %.4f s (median of %d worker starts)" % ("setup_s", r["setup_s"], r["setup_samples"]),
        "  %-16s %.4f s (median over %d inputs of each input's median run)" % ("job_p50_s", r["job_p50_s"], r["inputs"]),
        "  %-16s %.4f s (p%d of %d inputs)" % ("job_tail_s", r["job_tail_s"], r["job_tail_percentile"], r["job_tail_samples"]),
        "  %-16s %.4f 1/s (inputs / sum of per-input medians)" % ("jobs_per_s", r["jobs_per_s"]),
        "  %-16s %.4f ratio (%d failed of %d jobs)" % ("fail_ratio", r["fail_ratio"], r["failed"], r["attempted"]),
        "  %-16s %.4f ratio (%d of %d certificates)" % ("decided_ratio", r["decided_ratio"], r["decided"], r["certificates"]),
        "  %-16s %.1f MB" % ("peak_rss_mb", r["peak_rss_mb"]),
        "  %-16s %.4f s (median of %d probes; %.4f before and %.4f after the loop; reference %.4f)"
        % ("host.calib_s", r["host.calib_s"], r["probes"], *r["calib_before_after"], measure.PROBE_REF_S),
        "  output checks: %s; %d Groebner bases compared with sympy"
        % ("pass" if r["correct"] else "FAIL", r["gb_checked"]),
    ]
    slowest = sorted(r["per_input"].items(), key=lambda kv: -kv[1])[:5]
    lines.append("  slowest inputs: " + ", ".join("%s %.3f s" % kv for kv in slowest))
    for key, layer in r["overruns"]:
        lines.append("  overrun: %s after %.0f s budget, in %s" % (key, BUDGET_S, layer))
    for key, why in r["failures"]:
        lines.append("  failed: %s: %s" % (key, why))
    if trace:
        for name, value in per_layer_metrics(r).items():
            lines.append("  %-48s %.6g" % (name, value))
        if r["coverage"]:
            lines += ["  coverage: " + e for e in r["coverage"]]
        else:
            lines.append("  coverage: every expected layer metric nonzero, every predicted bypass zero")
    return lines


def result_line(r, trace):
    if trace:
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in per_layer_metrics(r).items()}
    else:
        metrics = {name: {"value": r[name], "unit": unit} for name, unit in END_TO_END}
    return {"correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"], "metrics": metrics}


def unit_of(name):
    if name == "host.calib_s":
        return "s"
    if name == "trace.jobs_per_s":
        return "1/s"
    return "s/job" if name.endswith("self_s") else "1/job"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=jobs.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "golodlab" / "cli.py").is_file():
        print("error: run from the root of a golodlab checkout (src/golodlab missing)", file=sys.stderr)
        return 2
    if args.workload != "all":
        r = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), root)
        print("\n".join(report_lines(r, args.trace)))
        print(json.dumps(result_line(r, args.trace)))
        return 0
    summary = {}
    for w in jobs.WORKLOADS:
        plain = run_workload(w, args.seed, args.seconds, False, root)
        traced = run_workload(w, args.seed, args.seconds, True, root)
        print("\n".join(report_lines(plain, False) + report_lines(traced, True)))
        overhead = plain["jobs_per_s"] - traced["jobs_per_s"]
        print("  tracing overhead: jobs_per_s %.4f untraced, %.4f traced (%.1f%% lower)"
              % (plain["jobs_per_s"], traced["jobs_per_s"], 100 * overhead / plain["jobs_per_s"]))
        summary[w] = result_line(plain, False)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
