"""Pure helpers: summary statistics and failure classification."""
from __future__ import annotations

import math
import time
from fractions import Fraction

# The host probe: a fixed pure-Python Fraction loop, and the time it takes
# at the reference host speed that normalized times are quoted at.
PROBE_ITERS = 5000
PROBE_REF_S = 0.011


def probe() -> float:
    """Seconds for the probe loop on this host right now."""
    t0 = time.perf_counter()
    s = Fraction(0)
    for i in range(1, PROBE_ITERS + 1):
        s += Fraction(1, i % 97 + 1)
    return time.perf_counter() - t0


def normalized(raw, probes, before):
    """`raw` seconds measured between probes[before] and probes[before+1],
    scaled to the reference host speed."""
    around = probes[before : before + 2]
    return raw * PROBE_REF_S * len(around) / sum(around)


EXIT_MEANING = {1: "input error", 2: "caps exceeded", 3: "internal inconsistency"}


def tail(values):
    """(value, percentile, n): the nearest-rank value at the highest whole
    percentile that leaves at least 10 samples above it.  With 10 or fewer
    samples no such percentile exists and the maximum is reported as p100."""
    xs = sorted(values)
    n = len(xs)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if rank >= 1 and n - rank >= 10:
            return xs[rank - 1], p, n
    return xs[-1], 100, n


def classify(code, overrun=False, check_errors=()):
    """Why a job counts as failed, or None when it succeeded."""
    if overrun:
        return "overran the budget"
    if code != 0:
        return "exit %d (%s)" % (code, EXIT_MEANING.get(code, "unknown"))
    if check_errors:
        return "output check: " + "; ".join(check_errors)
    return None
