"""The host's speed, sampled while the workload runs.

On a shared machine the same code runs up to about 1.8 times slower when
other tenants are busy, in stretches from milliseconds to minutes, and a
35-s run cannot wait for a quiet one. A fixed pure-Python loop, the
*probe*, slows down with the workload: a timer interrupts the workload
every ``INTERVAL`` seconds and times one probe. An execution's time is
then read in probe units, its wall time (without the probes inside it)
over the mean probe time around it, and reported in reference seconds,
probe units times ``REFERENCE_S``, the probe's time on an idle host.
On a steady machine this is the wall time scaled by a constant; see
``bench/README.md`` for how well the probe tracks each workload.
"""

from __future__ import annotations

import bisect
import gc
import math
import os
import signal
import statistics
import time

INTERVAL = 0.1
REFERENCE_S = 0.0015  # one probe on an idle host of the reference machine
_PAD = 0.25  # probes up to this far outside an execution count as around it


def pin_to_current_cpu():
    """Keep this process, and the processes it starts, on the CPU it runs
    on now, so that the probes measure the CPU the timed work runs on.
    Does nothing where the CPU cannot be read or set."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, AttributeError, ValueError, IndexError):
        pass


def probe() -> float:
    """Fixed interpreter work: dict, tuple, list and float operations and
    calls, about 1.5 ms on an idle host of the reference machine. Returns a
    checksum."""
    acc = 0.0
    table: dict[tuple[int, int], float] = {}
    step = lambda a, b: a * 0.5 + math.sqrt(b + 1.0)
    for i in range(3000):
        key = (i % 31, i % 7)
        table[key] = table.get(key, 0.0) + step(float(i), acc % 3.0)
        acc += table[key] * 1e-6
        _pair = [key, acc]  # a short-lived object, as the program makes many
    return acc


def timed_probe() -> tuple[float, float]:
    """(start, end) of one probe, with the garbage collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        probe()
        return start, time.perf_counter()
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """Times one probe every ``INTERVAL`` seconds of wall time, from a
    SIGALRM handler, while started."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None

    def _sample(self, signum, frame):
        start, end = timed_probe()
        self.starts.append(start)
        self.ends.append(end)

    def start(self):
        for _ in range(50):  # warm the probe's code before timing it
            probe()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def durations(self) -> list[float]:
        return [b - a for a, b in zip(self.starts, self.ends)]

    def probe_time(self, a: float, b: float) -> float:
        """Time spent in probes that started within [a, b]."""
        lo, hi = bisect.bisect_left(self.starts, a), bisect.bisect_right(self.starts, b)
        return sum(self.ends[i] - self.starts[i] for i in range(lo, hi))

    def around(self, a: float, b: float) -> float:
        """Mean probe time over the probes within ``_PAD`` of [a, b]."""
        lo = bisect.bisect_left(self.starts, a - _PAD)
        hi = bisect.bisect_right(self.starts, b + _PAD)
        if hi - lo < 2:
            raise RuntimeError(f"fewer than two speed probes around [{a}, {b}]")
        return statistics.fmean(self.ends[i] - self.starts[i] for i in range(lo, hi))

    def reference_time(self, a: float, b: float) -> float:
        """Reference seconds of the work done in [a, b], probes excluded."""
        return (b - a - self.probe_time(a, b)) * REFERENCE_S / self.around(a, b)
