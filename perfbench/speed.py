"""Machine-speed reference used to scale every timing of the benchmark.

The benchmark runs on a 2-vCPU machine shared with other tenants, whose
speed on a fixed pure-Python loop changes by up to 2x between one
10-second stretch and the next, and the two vCPUs do not change together.
So the speed is sampled on the measuring thread itself: a fixed reference
kernel (benchmark code, no cdckit call) runs before and after each timed
region and, from an interval timer, every INTERVAL_S inside it.  The
region's time, minus the time spent in the reference runs, is scaled by
REFERENCE_S / (mean reference time): seconds at the speed the machine has
when the reference kernel takes REFERENCE_S.  A slower cdckit still reads
slower; a slower neighbour mostly does not.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# reference kernel time on the development machine in a quiet stretch
REFERENCE_S = 0.0013
INTERVAL_S = 0.25

_MASKS = np.arange(64 * 256, dtype=np.uint64).reshape(256, 64)


def _kernel(n=4000, sweeps=15):
    # about half pure Python (integer XOR, list indexing, dict stores, as in
    # cdckit's scalar kernels) and half numpy (the AND-and-popcount row
    # sweeps of the exhaustive check); either half alone tracked the other
    # kind of stage worse
    rows = [0x5A5A5, 0x3C3C3, 0x0F0F0, 0x33333, 0x55555, 0x12345]
    acc = 0
    seen = {}
    for i in range(n):
        j = i % 6
        r = rows[j] ^ i
        rows[j] = r
        if r & 0x100:
            acc ^= r >> 3
        seen[i & 1023] = acc
    for i in range(sweeps):
        acc ^= int(np.bitwise_count(_MASKS[i:] & _MASKS[i]).sum(axis=1).max())
    return acc


def reference_seconds(reps=5):
    """Median time of `reps` runs of the reference kernel."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[reps // 2]


class Meter:
    """Times a region; after it, `raw_seconds` is the region's time without
    the reference runs inside it and `factor` scales it to the reference
    speed.  With sample_inside false only the runs before and after the
    region count (for traced runs, whose spans the timer would perturb)."""

    def __init__(self, sample_inside=True):
        self.sample_inside = sample_inside

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        ref = reference_seconds(reps=3)
        self.refs.append(ref)
        self.ticks.append((t0, time.perf_counter() - t0, ref))

    def reference_time_within(self, start, end):
        """Time the reference runs took inside [start, end]."""
        return sum(dt for t, dt, _ref in self.ticks if start <= t <= end)

    def factor_within(self, start, end):
        """Scale for a part [start, end] of the region, from the reference
        runs inside it; the region's scale when none fell inside."""
        refs = [ref for t, _dt, ref in self.ticks if start <= t <= end]
        return REFERENCE_S / statistics.fmean(refs) if refs else self.factor

    def __enter__(self):
        self.refs = [reference_seconds()]
        self.ticks = []  # (start, seconds, reference time) of each run inside the region
        if self.sample_inside:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        elapsed = time.perf_counter() - self.t0
        if self.sample_inside:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.raw_seconds = elapsed - sum(dt for _t, dt, _ref in self.ticks)
        self.refs.append(reference_seconds())
        self.factor = REFERENCE_S / statistics.fmean(self.refs)
        self.seconds = self.raw_seconds * self.factor
        return False
