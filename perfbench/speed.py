"""Machine-speed calibration for timings on a shared host.

On a shared host the speed of our own CPU swings by half within tens of
milliseconds and drifts between runs, while our process keeps the CPU (CPU
time tracks wall time), so raw job times of two runs are not comparable.  A
fixed pure-Python loop, independent of pairsub and made of the bytecode the
jobs run (float list products, set unions, dict lookups, bit operations and
small function calls), is timed between jobs; a job's time is scaled by
NOMINAL_S over the mean of the calibrations on either side of it.  Scaled
times read as seconds on the defining host at its typical speed.  On that
host this cut the spread of a run's median job time across runs from about
a third to a few percent.
"""

from __future__ import annotations

import gc
import time

# Median time of `calibrate()` on the 2-vCPU x86-64 Linux VM the benchmark was
# defined on; a constant, so scaled times of different runs compare.
NOMINAL_S = 0.0108

_FLOATS = [i * 0.001 for i in range(263)]
_TABLE = {i: float(i) for i in range(1024)}
_ROUNDS = 100


def calibrate() -> float:
    """Seconds taken by a fixed amount of interpreter work.

    The collector is off meanwhile, so the program's heap does not change
    the work done.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _timed_work()
    finally:
        if collecting:
            gc.enable()


def _slack(*values: float) -> float:
    return max(1e-12, 1e-9 * max((abs(v) for v in values), default=0.0))


def _timed_work() -> float:
    begin = time.perf_counter()
    acc = 0.0  # a running sum, so no step's result goes unused
    for r in range(_ROUNDS):
        product = [a * b for a, b in zip(_FLOATS, _FLOATS)]
        acc += sum((1.0 - q) * v for q, v in zip(product, _FLOATS))
        covered = set()
        for k in range(0, 1024, 8):
            covered |= {k, k + 3, (k * 7) & 1023}
        for k in covered:
            acc += _TABLE[k]
        for mask in range(1, 40):
            low = mask & -mask
            a, b = _FLOATS[mask], _FLOATS[mask ^ low]
            acc += a >= b - _slack(a, b)
    return time.perf_counter() - begin


def scale(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between calibrations `before` and `after`, at nominal speed."""
    return seconds * NOMINAL_S / ((before + after) / 2)
