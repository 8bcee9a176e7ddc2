"""Wall times corrected for the host's changing speed.

On a shared host the same Python code runs up to about twice as slow
while another tenant uses the core, in stretches of a few seconds, so a
run's median pass time moves by 20% or more from run to run.  While a
:class:`HostProbe` is active, a real-time interval timer interrupts the
process every ``INTERVAL_S`` and the handler times a fixed small loop.
The mean of the samples taken during an interval measures how slowly the
host ran then, and a time measured over that interval is corrected as

    corrected = (wall - time spent in probes) * REFERENCE_PROBE_S / mean probe

i.e. it is expressed at the host speed at which the probe takes
``REFERENCE_PROBE_S``.  The probe costs about 1% of the run.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05
PROBE_ITERATIONS = 1500
# The warm probe's time on an idle core of the 2-vCPU VM where the
# benchmark's sizes were chosen.  It only sets the scale: there, corrected
# times match the wall times of passes that ran uncontended.
REFERENCE_PROBE_S = 140e-6


def _loop() -> None:
    table: dict[int, int] = {}
    for i in range(PROBE_ITERATIONS):
        table[i & 255] = table.get(i & 127, 0) + i


def probe_s() -> float:
    """Time of the probe loop, run once first so that the timed run finds
    its code and data in cache whatever the interrupted code had loaded."""
    _loop()
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


class HostProbe:
    """Context manager sampling the host's speed while it is active."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent: list[float] = []  # handler time, warm-up included

    def __enter__(self) -> "HostProbe":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        sample = probe_s()
        self.samples.append(sample)
        self.spent.append(time.perf_counter() - t0)

    def mark(self) -> int:
        return len(self.samples)

    def factors(self, spans: list[tuple[float, int, int]]) -> list[float]:
        """Speed corrections for ``(wall, first, last)`` intervals, each
        measured while ``samples[first:last]`` were taken.  An interval
        shorter than the timer period gets the mean of all the intervals'
        samples; with no samples at all, every factor is 1."""
        pooled = [s for _, first, last in spans for s in self.samples[first:last]]
        if not pooled:
            return [1.0] * len(spans)
        return [REFERENCE_PROBE_S / statistics.mean(self.samples[first:last] or pooled)
                for _, first, last in spans]

    def correct(self, spans: list[tuple[float, int, int]]) -> list[float]:
        """Corrected times of the intervals, the handler's time removed."""
        return [(wall - sum(self.spent[first:last])) * factor
                for (wall, first, last), factor in zip(spans, self.factors(spans))]
