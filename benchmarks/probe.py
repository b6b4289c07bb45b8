"""Machine-speed probe for the untraced benchmark run.

The benchmark runs on shared machines whose speed drifts: the same eval pass
takes anywhere from 0.20 s to 0.40 s, in phases lasting seconds, while its
CPU time stays equal to its wall time (the process is slowed, not
descheduled).  A run's raw medians then spread by 20-30% from one run to the
next, wider than any useful bound.

So a fixed reference kernel (a Python loop, small float32 matmul and tanh
steps, and float64 BLAS products: the kinds of work the program does) runs
every PROBE_INTERVAL_S of wall time, from a SIGALRM handler between the
program's bytecodes.  An operation's time is its wall time minus the probe
time inside it, with each stretch between probes scaled by REFERENCE_S over
the local probe duration: seconds at the speed at which the probe takes
REFERENCE_S.  The kernel and its inputs never change, so the scaling depends
on the machine only, never on the program.  Interleaved this way, the spread
of run medians drops from 20-30% to about 5%.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PROBE_INTERVAL_S = 0.2
NEIGHBOURS = 3
# About the probe's duration on an otherwise idle machine of the kind the
# baseline was recorded on (a 2-vCPU x86-64 VM), so reported times are close
# to that machine's wall times when it is quiet.
REFERENCE_S = 0.005


class SpeedProbe:
    """Context manager that samples the probe kernel on a wall-clock timer."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((32, 64)).astype(np.float32)
        self._w = (0.1 * rng.standard_normal((64, 64))).astype(np.float32)
        self._big = rng.standard_normal((192, 192))
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self._previous = None

    def kernel(self) -> None:
        total = 0
        for i in range(30000):
            total += i * i % 7
        x = self._x
        for _ in range(300):
            x = np.tanh(x @ self._w) + self._x
        for _ in range(8):
            self._big @ self._big

    def _sample(self) -> None:
        start = time.perf_counter()
        self.kernel()
        self.samples.append((start, time.perf_counter() - start))

    def _on_alarm(self, signum, frame) -> None:
        self._sample()
        # A one-shot timer re-armed after the kernel, so probes never nest.
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def seconds(self, start: float, end: float) -> float:
        """Wall time of [start, end] less the probes inside it, at reference
        speed.  Each stretch between probes is scaled by the median of the
        NEIGHBOURS probes nearest to it in time."""
        starts = [s for s, _ in self.samples]
        first = bisect.bisect_left(starts, start)
        last = bisect.bisect_left(starts, end)
        total = 0.0
        cursor = start
        for s, d in self.samples[first:last] + [(end, 0.0)]:
            if s > cursor:
                total += (s - cursor) * REFERENCE_S / self._local(starts, (cursor + s) / 2)
            cursor = max(cursor, s + d)
        return total

    def _local(self, starts: list[float], when: float) -> float:
        i = bisect.bisect_left(starts, when)
        lo = max(0, min(i - NEIGHBOURS // 2, len(starts) - NEIGHBOURS))
        return statistics.median(d for _, d in self.samples[lo:lo + NEIGHBOURS])

    def summary(self) -> dict:
        durations = sorted(d for _, d in self.samples)
        return {"probes": len(durations), "interval_s": PROBE_INTERVAL_S,
                "reference_s": REFERENCE_S, "median_s": statistics.median(durations),
                "min_s": durations[0], "max_s": durations[-1]}
