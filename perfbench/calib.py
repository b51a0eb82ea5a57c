"""Machine-speed reference for the benchmark's timings.

The benchmark runs on shared virtual machines whose speed for the same
pure-Python code drifts by a third over minutes, and flips between a fast and
a slow state from one second to the next.  `run.py` therefore times a fixed
reference kernel, which does not touch setcat, before every op and after the
last one, and rescales each op's time by how fast the kernel ran around it:

    time = measured time * REF_NOMINAL_S / (trimmed mean of the samples nearby)

so every reported time is in seconds of a machine on which one reference
sample takes `REF_NOMINAL_S`.  The kernel does the kind of work setcat's
exact arithmetic does (rational arithmetic with gcds, sparse polynomial
products in dicts, short-lived allocations) and nothing else; a change to
setcat cannot change its time.  The raw times stay in the detail files.
"""

from __future__ import annotations

import bisect
import gc
import time
from fractions import Fraction

# About the median reference sample on a 2-vCPU Intel Xeon VM (Python 3.11.7).
# Any constant would do; it only sets the scale of the reported times.
REF_NOMINAL_S = 0.002
SETUP_REF_SAMPLES = 20  # after each set-up
TRIM = 0.1  # share of samples dropped at each end before averaging
WINDOW_MIN_S = 0.05  # reference samples within this of an op rescale it ...
WINDOW_MULT = 3  # ... or within this many times the op's length


def kernel() -> int:
    """A fixed piece of rational and sparse-polynomial arithmetic (1-2 ms)."""
    a = {i: (i * 7919) % 101 - 50 for i in range(60)}
    b = {i: (i * 104729) % 103 - 51 for i in range(0, 60, 2)}
    prod = {}
    for i, x in a.items():
        for j, y in b.items():
            k = (i + j) % 97
            prod[k] = prod.get(k, 0) + x * y
    s = Fraction(0)
    for i in range(1, 300):
        s += Fraction(i % 13, i + 1)
    return len(prod) + s.denominator % 7


def sample() -> float:
    """Wall time of one reference kernel run, after an untimed run that brings
    its code and data back into the caches an op may have evicted them from.
    The cyclic garbage collector is off meanwhile (the kernel makes no
    cycles), so that the time does not depend on the size of setcat's heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        kernel()
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def speed(samples: list[float], sensitivity: float = 1.0) -> float:
    """The factor that rescales times measured next to `samples`: the nominal
    time over their mean, less the `TRIM` share at each end, to the power
    `sensitivity`.  A mean, not a median, because the machine flips between a
    fast and a slow state (the kernel takes 1.1 or 1.9 ms) and the mean
    follows the share of slow time.  `sensitivity` is how strongly the timed
    code feels that state compared with the kernel (1: as strongly)."""
    xs = sorted(samples)
    k = int(len(xs) * TRIM)
    core = xs[k:len(xs) - k]
    return (REF_NOMINAL_S * len(core) / sum(core)) ** sensitivity


def op_speeds(refs: list[tuple[float, float]], spans: list[tuple[float, float]],
              sensitivity: float = 1.0) -> list[float]:
    """The factor of each op (start, end), from the run's reference samples
    (end time, duration; sorted) within a window around it: the op's span
    widened on each side by `WINDOW_MULT` times its length, and by at least
    `WINDOW_MIN_S`.  A short op is rescaled by the machine state around it; a
    long one, during which the state changes, by a longer stretch of the run."""
    ends = [t for t, _ in refs]
    out = []
    for start, end in spans:
        widen = max(WINDOW_MIN_S, WINDOW_MULT * (end - start))
        lo = bisect.bisect_left(ends, start - widen)
        hi = bisect.bisect_right(ends, end + widen)
        out.append(speed([d for _, d in refs[lo:hi]], sensitivity))
    return out
