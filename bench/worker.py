"""Long-lived job worker: imports golodlab once, then runs CLI jobs.

    python3 bench/worker.py SRC_DIR TRACE

Protocol, one JSON object per line: the worker prints {"ready": true} once
`golodlab.cli` is imported, then answers each request {"argv": [...]} with
{"code", "out", "err", "rss_kb"} (peak resident memory so far) and, when TRACE is 1, "trace" (the span
totals of that job), and each request {"probe": true} with {"probe_s"}, the
time of the host probe loop in this process.  SIGUSR1 makes it print {"stack": [...]}, the golodlab frames it
is executing, so the runner can name the layer of a job it is about to kill
for overrunning its budget.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import sys
import traceback


def _golodlab_stack(frame):
    out = []
    while frame is not None:
        mod = frame.f_globals.get("__name__", "")
        if mod.startswith("golodlab."):
            out.append("%s.%s" % (mod[len("golodlab."):], frame.f_code.co_name))
        frame = frame.f_back
    return out[::-1]


def _peak_rss_kb():
    # ru_maxrss survives exec, so it would include the runner's own peak;
    # VmHWM belongs to this process image alone
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _send(obj):
    sys.__stdout__.write(json.dumps(obj) + "\n")
    sys.__stdout__.flush()


def main(src, trace):
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import golodlab.cli as cli
    import measure

    tracer = None
    if trace:
        import spans

        tracer = spans.install()
    signal.signal(signal.SIGUSR1, lambda signum, frame: _send({"stack": _golodlab_stack(frame)}))
    _send({"ready": True})
    for line in sys.stdin:
        req = json.loads(line)
        if "probe" in req:
            _send({"probe_s": measure.probe()})
            continue
        out, err = io.StringIO(), io.StringIO()
        if tracer:
            tracer.begin_job()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(req["argv"]) + ["--json"])
            except Exception:
                # an error the CLI does not map is a bug: report it as the
                # CLI's internal-error exit code and keep serving
                traceback.print_exc()
                code = 3
        reply = {
            "code": code,
            "out": out.getvalue(),
            "err": err.getvalue(),
            "rss_kb": _peak_rss_kb(),
        }
        if tracer:
            reply["trace"] = tracer.end_job()
        _send(reply)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2] == "1")
