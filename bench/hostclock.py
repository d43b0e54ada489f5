"""Time measured at a reference host speed.

On a shared host the same work can run at speeds up to about 2x apart,
and the speed changes within seconds: another tenant's load slows the
core down without taking it away, so process CPU time drifts just as
wall time does.  To keep that out of the benchmark's timings, a SIGALRM
timer runs a fixed reference snippet every ``PERIOD`` seconds in the main
thread, between the bytecodes of whatever the benchmark is running, and
records when it ran.  ``HostClock.seconds`` scales each stretch of time
between two samples by ``REF_S`` over the snippet's time at the end of
that stretch (the median of the five samples around it, since one sample
can be hit by an interrupt), so an interval reads as the seconds it would
have taken at the reference speed.  The snippet's own time is left out.

The snippet is a Python loop of 2x2 complex matrix steps, the same mix of
interpreter and small numpy calls that the library's transport spends its
time in.  ``REF_S`` is its time on one idle core of a 2.1 GHz Xeon
(Sapphire Rapids, KVM guest); on a host that runs the snippet in ``REF_S``
seconds, reference seconds equal wall seconds.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD = 0.025  # seconds between samples
REF_S = 3.5e-4  # snippet seconds at the reference speed
_STEPS = 20
_A = np.array([[0.1 + 0.2j, 0.3], [0.05j, -0.2]])


def snippet() -> None:
    """Fixed work: 20 RK4 steps of dY/dz = -A/z Y."""
    y = np.eye(2, dtype=complex)
    z, h = 1.0, 1e-4
    for _ in range(_STEPS):
        k1 = -(_A / z) @ y
        k2 = -(_A / (z + h / 2)) @ (y + h / 2 * k1)
        k3 = -(_A / (z + h / 2)) @ (y + h / 2 * k2)
        k4 = -(_A / (z + h)) @ (y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        z += h


class HostClock:
    """Samples the host speed while running and converts intervals to reference seconds."""

    def __init__(self):
        self.marks: list[tuple[float, float]] = []  # (start, end) of each snippet run
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, *_) -> None:
        t0 = time.perf_counter()
        snippet()
        self.marks.append((t0, time.perf_counter()))

    def _scale(self, i: int) -> float:
        """REF_S over the median snippet time of the five samples around sample i."""
        window = self.marks[max(i - 2, 0) : i + 3]
        return REF_S / statistics.median(e - s for s, e in window)

    def seconds(self, t0: float, t1: float) -> float:
        """Reference seconds between two ``time.perf_counter()`` readings.

        Time before the first sample, or after the last, is scaled as at
        the nearest sample.
        """
        marks = self.marks
        i = bisect.bisect_left(marks, (t0,))
        total, a = 0.0, t0
        while i < len(marks) and marks[i][0] < t1:
            total += (marks[i][0] - a) * self._scale(i)
            a, i = marks[i][1], i + 1
        return total + max(t1 - a, 0.0) * self._scale(min(i, len(marks) - 1))
