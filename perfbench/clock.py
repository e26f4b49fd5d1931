"""Time normalized by an interleaved reference loop.

On a host whose CPU speed drifts with its neighbours' load, raw times of the
same work move by a fifth between runs.  A fixed stdlib loop of small
`Fraction` operations, timed right before and after each measured call,
moves with the same drift (the interpreter work is alike), so

    normalized seconds = raw seconds * NOMINAL_S / reference loop seconds

reads the same on a fast or a slow stretch.  It equals raw time when the
loop runs at its nominal speed.  The loop uses no ltireach code, so no
change to the program can move it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.009  # the loop's duration on a 2-CPU x86-64 host, Python 3.11.7


def reference_loop() -> float:
    """Seconds taken by the fixed reference work."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for k in range(1500):
        acc = (acc + Fraction(k % 7 + 1, k % 5 + 2)) * Fraction(2, 3)
        if k % 16 == 15:
            acc = Fraction(acc.numerator % 10007, acc.denominator % 10009 + 1)
    return time.perf_counter() - t0


def normalize_series(raw: list[float], loops: list[float], reach: int = 3) -> list[float]:
    """Normalize a series of timed calls where call i ran between loops[i]
    and loops[i + 1], each by the median of the `2 * reach` loops around it;
    the median damps the noise of a single 9 ms loop."""
    return [r * NOMINAL_S / statistics.median(loops[max(0, i - reach + 1):i + reach + 1])
            for i, r in enumerate(raw)]
