"""Machine-speed reference for the benchmark's timings.

On the shared 2-core machine this benchmark was defined on, the speed of
pure-Python and NumPy work drifts by tens of percent over seconds to
minutes, so medians of raw wall time spread by 12-25% between runs (see
perfbench/README.md).  Every timed pass and set-up is therefore bracketed by
a fixed reference loop that uses neither pandmort nor any file, and a
timing is reported as

    wall seconds * (REFERENCE_S / reference seconds) ** ELASTICITY

where the reference seconds are the mean of the loop's time just before and
just after.  A pass is less sensitive to the drift than the loop: the
log-log slope of pass time against loop time was 0.59 for a pipeline pass
and 0.72 for a calibration pass, hence ELASTICITY.  On a steady machine
where the loop takes REFERENCE_S, a timing equals the wall time.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.04
ELASTICITY = 0.65
# Set-ups per run; setup_s is their median.
SETUP_REPEATS = 5


def reference_seconds():
    """Wall time of a fixed mix of text formatting and parsing, dict
    building and small-array NumPy arithmetic, like the pipeline's own."""
    t0 = time.perf_counter()
    rows = [f"{i},{i * 0.37:.17g}" for i in range(15000)]
    table = {}
    for row in rows:
        key, value = row.split(",")
        table[int(key)] = float(value)
    a = np.linspace(0.0, 1.0, 4000)
    for _ in range(150):
        a = np.exp(-a) * 0.5 + np.sqrt(a)
    if len(table) != 15000 or not np.isfinite(a).all():
        raise RuntimeError("reference loop computed a wrong result")
    return time.perf_counter() - t0


class Clock:
    """Times calls together with the reference loop on both sides of each."""

    def __init__(self):
        self._last_ref = reference_seconds()

    def time(self, fn, *args, **kwargs):
        """-> (result, wall seconds, reference seconds)."""
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
        ref = reference_seconds()
        scale = (REFERENCE_S / ((self._last_ref + ref) / 2)) ** ELASTICITY
        self._last_ref = ref
        return result, wall, wall * scale
