"""Host-speed probe: time measured on a shared host, converted to the
time the same work takes at a fixed reference speed.

A shared host runs the benchmark at a speed that swings by 1.5x or more
over seconds to minutes (other tenants contend for the core's caches and
memory), so plain wall time of the same work differs from run to run by
more than the changes the benchmark is meant to show.  `SpeedProbe`
samples that speed while the workload runs: every `INTERVAL_S` a timer
signal interrupts the workload and times three fixed loops, each
following one way the host slows the code under test: interpreter
arithmetic (the core's clock), reads scattered over 8 MB (cache and
memory latency) and a 2 MB array copy (memory bandwidth, which the
array-heavy Green routes depend on).  The speed at a sample is the
geometric mean of the three loops' speeds relative to their reference
times; on the workloads here it tracks slowdowns better than any one
loop.  Samples go into storage allocated up front, so the probe
allocates nothing while the workload runs.

`seconds(a, b)` converts an interval of the probe's clock to reference
seconds: its length times the mean speed of the samples taken inside it
(or the `MIN_SAMPLES` nearest, for short intervals).  The probe's clock
excludes the time spent in the calibration itself, so the workload's own
time is what gets converted.  A run that does twice the work reports
twice the reference seconds whatever the host speed was.
"""

from __future__ import annotations

import bisect
import random
import signal
import time

import numpy as np

_now = time.perf_counter

INTERVAL_S = 0.04
MIN_SAMPLES = 4
CAPACITY = 1 << 16          # samples; 40 minutes at INTERVAL_S
# Loop times at the fast state of the 2-vCPU Xeon guest the benchmark was
# tuned on; they only set the unit of the reported times.
ARITH_REF_S = 0.00018
READS_REF_S = 0.00035
COPY_REF_S = 0.0004

_rng = random.Random(20051104)
_TABLE = [_rng.randrange(1 << 30) for _ in range(1 << 20)]
_READS = [_rng.randrange(1 << 20) for _ in range(400)]
_COPY_SRC = np.ones(1 << 18)
_COPY_DST = np.empty(1 << 18)


def arithmetic_loop() -> int:
    acc = 0
    for i in range(2000):
        acc += i * i % 7
    return acc


def reads_loop() -> int:
    acc = 0
    for i in _READS:
        acc += _TABLE[i]
    return acc


def copy_loop() -> None:
    np.copyto(_COPY_DST, _COPY_SRC)


class SpeedProbe:
    def __init__(self, capacity: int = CAPACITY):
        self._times = [0.0] * capacity   # probe clock at each sample
        self._speeds = [0.0] * capacity
        self.n = 0
        self.paused = 0.0                # wall seconds spent calibrating
        self._old_handler = None
        self.running = False
        self._busy = False

    @property
    def times(self) -> list[float]:
        return self._times[:self.n]

    @property
    def speeds(self) -> list[float]:
        return self._speeds[:self.n]

    def record(self, t: float, speed: float) -> None:
        if self.n < len(self._times):
            self._times[self.n] = t
            self._speeds[self.n] = speed
            self.n += 1

    def clock(self) -> float:
        """Wall clock minus the time spent in calibration."""
        return _now() - self.paused

    def sample(self, *_signal) -> None:
        if self._busy:      # a tick that arrives during a sample is dropped
            return
        self._busy = True
        t0 = _now()
        arithmetic_loop()
        t1 = _now()
        reads_loop()
        t2 = _now()
        copy_loop()
        t3 = _now()
        self.record(t0 - self.paused,
                    (ARITH_REF_S / (t1 - t0) * READS_REF_S / (t2 - t1)
                     * COPY_REF_S / (t3 - t2)) ** (1 / 3))
        self.paused += t3 - t0
        self._busy = False

    def start(self) -> "SpeedProbe":
        if self.running:
            return self
        self.running = True
        for _ in range(MIN_SAMPLES):
            self.sample()
        self._old_handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        if not self.running:
            return
        self.running = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._old_handler is not None:
            signal.signal(signal.SIGALRM, self._old_handler)
            self._old_handler = None
        for _ in range(MIN_SAMPLES):
            self.sample()

    def seconds(self, a: float, b: float) -> float:
        """Reference seconds of the probe-clock interval [a, b]."""
        times = self.times
        lo = bisect.bisect_left(times, a)
        hi = bisect.bisect_right(times, b)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(times)):
            # widen towards the nearer neighbour
            before = a - times[lo - 1] if lo > 0 else float("inf")
            after = times[hi] - b if hi < len(times) else float("inf")
            if before <= after:
                lo -= 1
            else:
                hi += 1
        window = self._speeds[lo:hi]
        return (b - a) * sum(window) / len(window)
