"""CPU speed sampling, for scaling wall-clock figures to a reference speed.

The benchmark was sized on a 2-vCPU virtual machine whose CPUs are
shared with other tenants.  There, how fast the interpreter runs
changes by ±25% within a minute and by ±45% between two sets of runs
minutes apart, and every wall-clock figure of every workload moves
with it.  No steal time shows; the slowdown is contention for the
physical cores, so process CPU time moves just the same.

A :class:`SpeedMeter` times a fixed pure-Python loop for half a
millisecond at a time, on the thread that runs the workload, while the
workload runs.  The mean of those samples relative to
:data:`REFERENCE` is the window's speed ratio; rates are divided by it
and durations multiplied by it, which reports each figure at the
reference speed.  The loop does not touch the program, so a change to
the program moves the scaled figures exactly as it moves the raw ones.
"""

from __future__ import annotations

import asyncio
import bisect
import statistics
import time
from typing import List

__all__ = ["REFERENCE", "SpeedMeter", "probe"]

#: Probe units per second at the reference speed: about the mean speed of
#: the 2-vCPU machine the benchmark was sized on.
REFERENCE = 450_000.0

#: Seconds one probe runs.
PROBE_SECONDS = 0.0005

#: Seconds between probes while a window is measured.
PROBE_INTERVAL = 0.1


def _unit() -> int:
    table = {}
    for key in range(16):
        table[key] = (key, key * key)
    return len(table)


def probe() -> float:
    """Units of a fixed interpreter loop per second, timed for :data:`PROBE_SECONDS`."""
    clock = time.perf_counter
    began = clock()
    units = 0
    while True:
        _unit()
        units += 1
        elapsed = clock() - began
        if elapsed >= PROBE_SECONDS:
            return units / elapsed


class SpeedMeter:
    """Speed samples of one measured window, and when each probe ran."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.starts: List[float] = []
        self.ends: List[float] = []

    def sample(self) -> None:
        self.starts.append(time.perf_counter())
        self.samples.append(probe())
        self.ends.append(time.perf_counter())

    def overlaps_probe(self, start: float, end: float) -> bool:
        """Whether a probe ran at some time within ``(start, end)``.

        A probe stalls the thread it runs on, so an operation it
        overlapped took longer by up to :data:`PROBE_SECONDS`.
        """
        index = bisect.bisect_left(self.starts, end)
        return index > 0 and self.ends[index - 1] > start

    @property
    def ratio(self) -> float:
        """The window's mean speed relative to :data:`REFERENCE` (> 1 is faster)."""
        return statistics.fmean(self.samples) / REFERENCE

    def rate(self, value: float) -> float:
        """A per-second rate at the reference speed."""
        return value / self.ratio

    def duration(self, value: float) -> float:
        """A duration at the reference speed."""
        return value * self.ratio

    async def run(self, deadline: float) -> None:
        """Sample every :data:`PROBE_INTERVAL` seconds until ``deadline``."""
        self.sample()
        while time.perf_counter() < deadline:
            await asyncio.sleep(PROBE_INTERVAL)
            self.sample()
