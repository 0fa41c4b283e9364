"""Correct wall times for the host's speed drift.

On a shared host the same Python code can run twice as fast in one minute
as in the next (the reference machine showed a fixed loop swing from 0.19 s
to 0.25 s between consecutive runs, and whole benchmark runs by up to 2x),
so raw wall times of two runs say more about the neighbours than about the
program.  :class:`SpeedProbe` samples the host's speed while a section
runs: an interval timer interrupts the section every ``PERIOD_S`` of wall
time and runs one fixed chunk of pure-Python work, timing it.  Samples are
spread uniformly over the section, so their mean chunk time tracks the
speed the section itself ran at.

A corrected time is the section's raw wall time minus the time spent in
the probe, scaled by ``REF_CHUNK_S / mean chunk time``: the time the section
would have taken at the speed the reference machine ran the chunk at.  The
probe never touches the simulation, so simulated results are unaffected.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.01
# Median time of one chunk on the reference machine; it only sets the scale.
REF_CHUNK_S = 0.0005


def _chunk() -> dict:
    table: dict[int, int] = {}
    for i in range(1800):
        key = i % 61
        table[key] = table.get(key, 0) + len(str(i))
    return table


class SpeedProbe:
    """Context manager that samples host speed while its body runs."""

    def __init__(self) -> None:
        self.spent_s = 0.0  # wall time inside the probe, chunk and dispatch
        self.chunk_s = 0.0
        self.samples = 0
        self._previous = None

    def _sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        _chunk()
        end = time.perf_counter()
        self.chunk_s += end - start
        self.samples += 1
        self.spent_s += time.perf_counter() - start

    def __enter__(self) -> "SpeedProbe":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    @property
    def factor(self) -> float:
        """Reference speed over measured speed (below 1 on a slow host)."""
        return REF_CHUNK_S / (self.chunk_s / self.samples)
