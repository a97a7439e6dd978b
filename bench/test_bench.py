"""Tests of the benchmark itself:  python3 -m pytest bench"""
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import jobs  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _dump(corpus):
    return json.dumps([[j.key, list(j.argv)] for j in corpus])


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_generator_is_a_function_of_the_seed(workload):
    a = _dump(jobs.build(workload, 7, ROOT))
    assert a == _dump(jobs.build(workload, 7, ROOT))
    assert a != _dump(jobs.build(workload, 8, ROOT))


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_inputs_change_with_the_seed_not_only_their_order(workload):
    def inputs(seed):
        return {j.argv for j in jobs.build(workload, seed, ROOT)}

    assert inputs(7) != inputs(8)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_corpus_has_forty_distinct_inputs(seed):
    # the tail percentile is fixed by the input count: 40 inputs give p75
    for w in jobs.WORKLOADS:
        corpus = jobs.build(w, seed, ROOT)
        assert len({j.key for j in corpus}) == len(corpus) == 40


@pytest.mark.parametrize(
    "n, percentile, index",
    [(40, 75, 29), (100, 90, 89), (200, 95, 189), (33, 69, 22), (11, 9, 0), (10, 100, 9), (1, 100, 0)],
)
def test_tail_takes_the_highest_percentile_with_ten_beyond(n, percentile, index):
    values = [float(i) for i in range(n)][::-1]
    value, p, count = measure.tail(values)
    assert (p, count) == (percentile, n)
    assert value == float(index)
    if p < 100:
        assert sum(v > value for v in values) >= 10


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_nested_and_recursive_spans():
    clock = FakeClock()
    tr = spans.Tracer(clock=clock)

    def leaf():
        clock.now += 1.0

    def node(depth):
        clock.now += 2.0
        wleaf()
        if depth:
            wnode(depth - 1)
        clock.now += 0.5

    wleaf = tr.wrap("leaf", leaf)
    wnode = tr.wrap("node", node)
    tr.begin_job()
    wnode(2)  # three nested node spans, each with 2.5 s of its own
    assert tr.calls["node"] == 3 and tr.calls["leaf"] == 3
    assert tr.self_s["node"] == pytest.approx(7.5)
    assert tr.self_s["leaf"] == pytest.approx(3.0)
    assert clock.now == pytest.approx(10.5)
    assert tr.stack == []


def test_a_span_survives_an_exception():
    clock = FakeClock()
    tr = spans.Tracer(clock=clock)

    def boom():
        clock.now += 1.0
        raise ValueError

    wrapped = tr.wrap("boom", boom)
    with pytest.raises(ValueError):
        wrapped()
    assert tr.calls["boom"] == 1 and tr.self_s["boom"] == 1.0 and tr.stack == []


@pytest.mark.parametrize("code", [1, 2, 3])
def test_nonzero_exit_codes_fail(code):
    assert measure.classify(code).startswith("exit %d" % code)


def test_overruns_and_failed_checks_fail():
    assert measure.classify(None, overrun=True) == "overran the budget"
    assert measure.classify(0, check_errors=["repeat gave different JSON"])
    assert measure.classify(0) is None


def _cert(verdict, rule, poincare, bound, witness=None):
    return {
        "verdict": verdict,
        "rule": rule,
        "witness": witness,
        "serre": {"poincare": poincare, "bound": bound, "N": 3, "D": 9},
        "evidence": {},
        "caps_exceeded": False,
    }


def test_certificate_checks():
    assert checks.certificate_errors(_cert("GolodUpTo", None, [1, 3, 6], [1, 3, 6])) == []
    assert checks.certificate_errors(_cert("GolodProven", "RainbowLinear", [1, 3, 5], [1, 3, 6]))
    gap = {"kind": "serre-gap", "coefficient": 2, "poincare": 5, "bound": 6}
    assert checks.certificate_errors(_cert("NotGolod", "SerreGap", [1, 3, 5, 9], [1, 3, 6, 10], gap)) == []
    late = dict(gap, coefficient=3, poincare=9, bound=10)
    assert checks.certificate_errors(_cert("NotGolod", "SerreGap", [1, 3, 5, 9], [1, 3, 6, 10], late))


def test_gb_check_against_sympy():
    pytest.importorskip("sympy")
    gens = ("a^2 - b*c", "a*b")
    assert checks.gb_errors("QQ[a,b,c]", gens, ["a^2 - b*c", "a*b", "b^2*c"]) == []
    assert checks.gb_errors("QQ[a,b,c]", gens, ["a^2 - b*c", "a*b"])
    assert checks.gb_errors("F7[a,b,c]", gens, ["a^2 + 6*b*c", "a*b", "b^2*c"]) == []


def test_worker_overrun_is_killed_restarted_and_located():
    worker = run.Worker(ROOT / "src", trace=False)
    try:
        worker.start()
        reply, wall, stack = worker.run(("golod", "--ideal", "x^3,y^3,z^3,xyz"), budget=0.3)
        assert reply is None and wall == 0.3
        assert stack and all("." in f for f in stack)
        assert len(worker.setup_s) == 2  # the restart counts as set-up
        reply, _, _ = worker.run(("golod", "--ideal", "x^2,y^2"))
        assert reply["code"] == 0
        # a complete intersection: a nonzero homology product
        assert json.loads(reply["out"])["certificate"]["verdict"] == "NotGolod"
    finally:
        worker.stop()


def test_traced_worker_reports_every_layer_metric():
    worker = run.Worker(ROOT / "src", trace=True)
    try:
        worker.start()
        reply, _, _ = worker.run(("golod", "--ideal", "x^2,x*y,y^3"))
    finally:
        worker.stop()
    trace = reply["trace"]
    assert sorted(trace) == sorted(spans.metric_names())
    assert trace["cli.run_job.calls"] == 1
    # the inner polarization certificate goes through the patched name
    assert trace["analyzer.golod_certificate.calls"] >= 2
    assert trace["fields.ops"] > 0
