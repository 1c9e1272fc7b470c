"""Reference seconds: wall time corrected for the machine's momentary speed.

On a small shared virtual machine the same code runs at two or more speeds
that alternate every few seconds (a 2-core box measured 1.7x between its
fast and slow states), so raw wall times of one workload spread by up to 30%
between runs.  ``RefClock`` samples the speed while the timed work runs:
every ``INTERVAL`` of process CPU time a SIGPROF handler times two fixed
calibration kernels,

* ``compute``: small numpy reductions plus a Python loop, the profile of
  the solver's hot path.  It runs three times and the faster of the last
  two counts; the first run only refills the caches (right after the
  simulator's large arrays a cold kernel took 2.3 times as long as a warm
  one, so a cold one would measure the workload's cache footprint);
* ``memory``: two passes over a 1 MiB array, the profile of the
  simulator's codebook arrays.  The faster of two runs counts.

The slow state does not slow both profiles alike: simulator times corrected
by the compute kernel still spread by 11%, by the memory kernel by 4%, and
the other way round for the solver.  So each interval is corrected by the
kernel of its profile: [a, b] is worth

    (b - a - kernel time inside it) * mean(REFERENCE[kind] / kernel time)

reference seconds, the mean taken over the samples inside the interval, or
over the nearest ones when it holds fewer than ``MIN_SAMPLES``.  At the
reference speed, where the kernels take ``REFERENCE`` seconds, reference
seconds equal wall seconds.  Sampling costs about 2% of the run.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL = 0.02
#: Kernel times at the reference speed: about the fast state of a 2-core
#: Xeon virtual machine (Python 3.11, numpy 2.4).
REFERENCE = {"compute": 40e-6, "memory": 120e-6}
MIN_SAMPLES = 4

_BLOCK = np.linspace(0.1, 1.0, 64).reshape(16, 2, 2)
_STREAM = np.linspace(0.0, 1.0, 1 << 17)


def compute_kernel() -> float:
    """Run the compute kernel once; return its duration in seconds."""
    started = time.perf_counter()
    a = _BLOCK
    for _ in range(6):
        m = a.sum(axis=1)
        float((m * np.log(m)).sum())
        a = a * 1.0
    x = 0
    for i in range(60):
        x += i * i
    return time.perf_counter() - started


def memory_kernel() -> float:
    """Run the memory kernel once; return its duration in seconds."""
    started = time.perf_counter()
    float(_STREAM.sum())
    int((_STREAM > 0.5).sum())
    return time.perf_counter() - started


def spot_speed(kind: str, repeats: int = 30) -> float:
    """Speed measured now by repeating one kernel.

    The first third of the repeats only warms the kernel up.
    """
    kernel = compute_kernel if kind == "compute" else memory_kernel
    costs = [kernel() for _ in range(repeats)]
    return REFERENCE[kind] / statistics.median(costs[repeats // 3:])


class RefClock:
    """Samples both kernels while started; converts intervals."""

    def __init__(self):
        self.times: list[float] = []
        self.costs: dict[str, list[float]] = {kind: [] for kind in REFERENCE}
        self.spent: list[float] = []
        self._previous = None

    def sample(self) -> None:
        """Time both kernels now and record the sample."""
        self.times.append(time.perf_counter())
        c = [compute_kernel() for _ in range(3)]
        m = [memory_kernel() for _ in range(2)]
        self.costs["compute"].append(min(c[1:]))
        self.costs["memory"].append(min(m))
        self.spent.append(sum(c) + sum(m))

    def _on_signal(self, signum, frame):
        self.sample()

    def start(self) -> None:
        for _ in range(MIN_SAMPLES):
            self.sample()
        self._previous = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()
        return False

    def speed(self, a: float, b: float, kind: str) -> float:
        """Mean reference speed (REFERENCE / kernel time) around [a, b]."""
        lo = bisect.bisect_left(self.times, a)
        hi = bisect.bisect_right(self.times, b)
        if hi - lo < MIN_SAMPLES:
            lo = max(0, lo - MIN_SAMPLES // 2)
            hi = min(len(self.times), max(hi, lo + MIN_SAMPLES))
            lo = max(0, min(lo, hi - MIN_SAMPLES))
        ref = REFERENCE[kind]
        return statistics.fmean(ref / c for c in self.costs[kind][lo:hi])

    def seconds(self, a: float, b: float, kind: str) -> float:
        """Reference seconds of the wall interval [a, b]."""
        lo = bisect.bisect_left(self.times, a)
        hi = bisect.bisect_right(self.times, b)
        spent = sum(self.spent[lo:hi])
        return max(b - a - spent, 0.0) * self.speed(a, b, kind)
