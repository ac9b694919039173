"""Time measured against a reference kernel run alongside the workload.

The speed of a shared machine drifts by 20-40% over tens of seconds, far
more than the effects the benchmark should resolve.  While a ``Meter``
samples, an interval timer interrupts the measured code every
``INTERVAL_S`` seconds and runs a fixed reference kernel (plain Python
tuple, dict and float work plus NumPy array work, nothing from the
package).  Each segment between two kernel runs is scaled by
``REF_NOMINAL_S`` over the mean kernel time at its two ends, so a
reported second is a second on a machine where the kernel takes
``REF_NOMINAL_S``.  Kernel time is never counted as measured time; the
raw seconds are kept as well.  The kernel shares no state with the
measured code, so interrupting it between two bytecodes is harmless.
"""

from __future__ import annotations

import math
import signal
from time import perf_counter

import numpy as np

REF_NOMINAL_S = 0.02
INTERVAL_S = 0.25

_BOXES = [((float(i), float(i % 7)), (float(i) + 0.5, float(i % 7) + 2.0)) for i in range(120)]
_ARRAY = np.linspace(0.0, 1.0, 100_000)


def _overlap(lo1, hi1, lo2, hi2) -> bool:
    return all(a1 < b2 and a2 < b1 for a1, b1, a2, b2 in zip(lo1, hi1, lo2, hi2))


def reference_kernel() -> float:
    """Fixed work of about 20 ms; returns its duration in seconds."""
    t0 = perf_counter()
    hits = 0
    for lo, hi in _BOXES:
        for lo2, hi2 in _BOXES[::3]:
            hits += _overlap(lo, hi, lo2, hi2)
    acc: dict = {}
    for i in range(20_000):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, 0.0) + math.sqrt(i) ** 1.5
    order = sorted(acc.values())
    x = _ARRAY
    for _ in range(4):  # allocates like the package's array code; at most ~4 MB at once
        y = np.where(x < 0.5, np.sqrt(np.maximum(x - 0.1, 0.0)), x * x)
        x = np.minimum(y + 0.001, 1.0)
    if hits + len(order) + x[0] < 0:  # keeps the work observable
        raise AssertionError
    return perf_counter() - t0


class Meter:
    """Accumulates raw and reference-scaled seconds between ``take`` calls."""

    def __init__(self):
        self._ref = reference_kernel()
        self._start = perf_counter()
        self._raw = 0.0
        self._scaled = 0.0
        self._previous = None

    def __enter__(self) -> "Meter":
        """Start sampling; the first ``take`` inside discards earlier time."""
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_timer(self, signum, frame) -> None:
        self._segment()

    def _segment(self) -> None:
        dur = perf_counter() - self._start
        ref = reference_kernel()
        self._raw += dur
        self._scaled += dur * REF_NOMINAL_S / (0.5 * (self._ref + ref))
        self._ref = ref
        self._start = perf_counter()

    def take(self) -> tuple[float, float]:
        """(raw, scaled) seconds measured since the previous ``take``."""
        self._segment()
        out = (self._raw, self._scaled)
        self._raw = self._scaled = 0.0
        return out
