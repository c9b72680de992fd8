"""Timings corrected for a machine whose speed changes under the benchmark.

On the shared virtual machine the benchmark was defined on, the same code
runs up to about 2x slower for seconds at a time while something outside
the machine loads the host (README.md, "Machine noise"). Each timed
interval is therefore bracketed by a probe: a fixed pure-Python loop timed
right before and right after it. The interval's time at reference speed is
its wall time scaled by REFERENCE_PROBE_S over the mean of its two probes,
that is, what it would have taken had the probe run at REFERENCE_PROBE_S.
"""

from __future__ import annotations

import time

# the probe's wall time on an uncontended core of the 2-vCPU Intel Xeon box
# the benchmark was defined on (the fastest probes of many runs, Python 3.11)
REFERENCE_PROBE_S = 1.6e-3


def probe() -> float:
    """Seconds taken by a fixed pure-Python loop: the machine's speed now."""
    t0 = time.perf_counter()
    acc: dict[int, int] = {}
    for i in range(20_000):
        acc[i & 255] = acc.get(i & 255, 0) + i
    return time.perf_counter() - t0


def at_reference(seconds: float, before: float, after: float) -> float:
    return seconds * 2.0 * REFERENCE_PROBE_S / (before + after)
