"""Machine-speed reference for normalising op times.

On a shared host the vCPU's speed switches between states about 1.5x apart
that last from seconds to minutes, so raw wall times of the same op spread
more across runs than any useful regression bound.  SpeedProbe times a fixed
reference kernel every INTERVAL_S from a SIGALRM handler, both between ops
and inside them, and keeps (time, duration) samples.  An op's time is then
rescaled by the kernel's nominal time over the median reference time sampled
while it ran: the op's wall time at the speed where the kernel takes its
nominal time.  The kernels live here, so no change to wavecrit moves them.

Different work slows by different factors in the slow state, so each
workload names the kernel that follows its own work (KERNELS): interpreter
work plus small NumPy ops for the scans, solves and iterations, and a
distance-and-dot pass over 10^4 points for the cube quadrature.  Set-up
time has its own reference, an import of the dependencies alone.
"""

import bisect
import signal
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

INTERVAL_S = 0.025
# Samples taken this long before an op starts or after it ends also count,
# so even the shortest op's reference is a median of about eight.
MARGIN_NS = 100_000_000

# Set-up time is rescaled the same way against a fresh process that imports
# only the dependencies wavecrit imports; IMPORT_REFERENCE_S is about its
# time in the fast state.
IMPORT_REFERENCE_S = 0.45
IMPORT_REFERENCE_CODE = r"""
import json, time
t0 = time.perf_counter()
import numpy, scipy.integrate, scipy.interpolate, scipy.optimize
print(json.dumps({"import_s": time.perf_counter() - t0}))
"""

_ARRAY = np.linspace(0.0, 4.0, 1024)
_POINTS = np.random.default_rng(0).uniform(-1.0, 1.0, (10000, 3))
_WEIGHTS = np.random.default_rng(1).random(10000)
_CENTER = np.array([0.1, 0.2, 0.3])


def interpreter_kernel() -> float:
    table = {}
    acc = 0.0
    for i in range(600):
        key = i % 17
        table[key] = max(i, table.get(key, 0))
        acc += i * 0.5
    for _ in range(16):
        acc += float(np.sum(np.exp(-_ARRAY * _ARRAY) * _ARRAY))
    return acc + len(table)


def arrays_kernel() -> float:
    dist = np.linalg.norm(_POINTS - _CENTER, axis=1)
    return float(np.dot(_WEIGHTS, 1.0 / (dist + 0.01)))


@dataclass(frozen=True)
class Kernel:
    run: Callable[[], float]
    nominal_ns: int  # about its time in the host's fast state, 2-vCPU x86-64 VM


KERNELS = {
    "interpreter": Kernel(interpreter_kernel, 300_000),
    "arrays": Kernel(arrays_kernel, 450_000),
}


class SpeedProbe:
    """Periodic timings of one reference kernel from a SIGALRM handler.

    Use as a context manager around the timed loop.  `busy_ns` is the total
    time spent in the handler, which callers subtract from an op's wall time.
    """

    def __init__(self, kernel: Kernel, interval_s: float = INTERVAL_S):
        self.kernel = kernel
        self.interval_s = interval_s
        self.times = []  # sample start, perf_counter_ns
        self.durations = []  # reference-kernel time of each sample, ns
        self.busy_ns = 0
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter_ns()
        self.kernel.run()
        end = time.perf_counter_ns()
        self.times.append(start)
        self.durations.append(end - start)
        self.busy_ns += time.perf_counter_ns() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def reference_ns(self, start_ns: int, end_ns: int) -> float:
        """Median reference time sampled in [start - margin, end + margin];
        if none fell there, the first sample after it (or the last one)."""
        lo = bisect.bisect_left(self.times, start_ns - MARGIN_NS)
        hi = bisect.bisect_right(self.times, end_ns + MARGIN_NS)
        if hi > lo:
            return statistics.median(self.durations[lo:hi])
        if not self.times:
            raise RuntimeError("speed probe took no samples")
        i = min(lo, len(self.times) - 1)
        return float(self.durations[i])

    def scale(self, start_ns: int, end_ns: int) -> float:
        """Factor that turns a wall time in [start, end] into normalised time."""
        return self.kernel.nominal_ns / self.reference_ns(start_ns, end_ns)
