"""The machine's pace, for reporting op times at a reference pace.

On a shared machine the same pure-Python work takes up to 1.8 times longer in
some minutes than in others, because of load the benchmark does not control.
``calibrate`` times a fixed kernel of the work ``smdc`` spends its time on:
fraction-free elimination of integer rows with gcd normalisation, the inner
loop of the exact simplex, and a sum of small Fractions, the arithmetic of
f_vector and of the inequality checks.  An op timed between two calibrations
is reported as ``seconds * REFERENCE_PACE_S / pace``, where pace is the mean
of the two: its duration on a machine where the kernel takes
REFERENCE_PACE_S.  A change to ``smdc`` moves op times and leaves the kernel
alone, so it still shows; a slow minute moves both and cancels.  Raw times
stay in the run record.
"""

from __future__ import annotations

import gc
import random
from fractions import Fraction
from math import gcd
from time import perf_counter

# Kernel time at the typical pace of the machine the bounds were set on
# (2 vCPU Intel Xeon, Python 3.11), so paced figures read as its seconds.
REFERENCE_PACE_S = 0.0058
FRACTION_TERMS = 700

_rng = random.Random(0)
_MATRIX = tuple(tuple(_rng.randint(-9, 9) for _ in range(60)) for _ in range(12))
del _rng


def calibrate() -> float:
    """Seconds the fixed kernel takes now.

    The garbage collector is held off meanwhile: right after an op that left
    many objects behind, a collection would land in the kernel and read as a
    slow machine.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _kernel()
    finally:
        if was_enabled:
            gc.enable()


def _kernel() -> float:
    start = perf_counter()
    total = Fraction(0)
    for i in range(FRACTION_TERMS):
        total += Fraction(1, i % 7 + 2)
    rows = [list(row) for row in _MATRIX]
    for r, pivot_row in enumerate(rows):
        p = pivot_row[r] or 1
        for i, row in enumerate(rows):
            q = row[r]
            if i != r and q:
                new = [p * a - q * b for a, b in zip(row, rows[r])]
                g = 0
                for a in new:
                    g = gcd(g, a)
                rows[i] = [a // g for a in new] if g > 1 else new
    return perf_counter() - start


def paced(seconds: float, pace: float) -> float:
    return seconds * REFERENCE_PACE_S / pace
