"""Host-speed calibration.

A shared VM's speed drifts: the same simulation takes up to 45% longer
from one minute to the next, and the processor time it is charged drifts
with it (nothing is stolen; the neighbours slow each instruction). No
choice of statistic over raw wall time removes that from the spread of
a few runs made minutes apart.

So every time the benchmark reports is rescaled to a reference host
speed. Around each pass (and between the ops of in-process passes,
outside the timed region) the benchmark times a fixed pure-Python
kernel; the pass's *speed factor* is :data:`REFERENCE_S` divided by the
median of those samples, and the pass's times are multiplied by it.

The kernel lives in the benchmark, not in the program under test, so a
change to the program moves a rescaled time exactly as much as the raw
time measured at the same host speed. Raw times are printed beside the
rescaled ones.
"""

from __future__ import annotations

import statistics
import time

#: Iterations of the kernel loop (10-14 ms on a 2.0 GHz vCPU).
LOOP = 120_000
#: Median kernel time on the reference host: a 2-vCPU shared VM at
#: 2.0 GHz running Python 3.11. A pass timed at this speed is reported
#: unchanged.
REFERENCE_S = 0.012
#: Samples taken before and after each pass's timed region.
SAMPLES_AROUND = 5


def kernel() -> int:
    total = 0
    for i in range(LOOP):
        total += i * i % 7
    return total


def sample() -> float:
    """Seconds the kernel takes once, now."""
    began = time.perf_counter()
    kernel()
    return time.perf_counter() - began


def samples() -> list[float]:
    return [sample() for _ in range(SAMPLES_AROUND)]


def factor(timings: list[float]) -> float:
    """Speed factor for times measured while ``timings`` were taken."""
    return REFERENCE_S / statistics.median(timings) if timings else 1.0
