"""Host speed probe.

The benchmark runs on shared hosts whose speed swings by about 1.5x in
phases of a few seconds, as other tenants load the same cores; CPU time
swings with wall time. Each measured request is bracketed by two runs of a
fixed piece of exact arithmetic, and its times are reported at the host speed
at which that reference takes REFERENCE_S:

    reported = measured * REFERENCE_S / (mean of the two probes)

The probe runs in the process that is timed (the session worker) or, for CLI
requests, in the benchmark process right before and after the child, pinned
to the same CPU. The raw times stay in the run record.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 0.005


def probe() -> float:
    """CPU seconds this process takes for the reference computation."""
    t0 = time.process_time()
    s = Fraction(0)
    for i in range(1, 1000):
        s += Fraction(i % 97, i % 13 + 1) * Fraction(3, i)
    return time.process_time() - t0


def factor(before: float, after: float) -> float:
    """Multiplier that brings a time measured between two probes to the
    reference speed."""
    return 2 * REFERENCE_S / (before + after)
