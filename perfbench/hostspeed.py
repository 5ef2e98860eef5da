"""Host-speed sampling, so wall times compare across a host whose speed
drifts.

On a 2-core x86-64 host (Python 3.11, numpy 2.4, OpenBLAS 0.3.31),
identical work ran 0.7 to 1.1 times its mean duration from one few-second
phase to the next, and a whole pass varied by more than 25% within a
quarter of an hour.  Short kernels of different kinds (small and batched SVDs, a tall product, a
Python loop) drifted together to within 5 to 8% over the same phases.
So while a pass runs, :class:`HostSpeed` runs a fixed reference slice of
those kernels every `interval` seconds of wall time (from ``SIGALRM``, on the
main thread) and records how long each slice took.  The pass's wall time,
less the slices, times the mean of ``REFERENCE_SLICE_S / slice`` over the
slices, is its wall time at the reference speed.

The slice measures the core it runs on.  A pass that runs BLAS on two
cores did not follow it: over eleven seeds of ``rate_sweep`` (two BLAS
threads) the corrected wall time spread by 9.6% of its median against 2.9%
raw, so such a pass reports raw wall time.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# median slice duration on that 2-core host; only sets the scale
REFERENCE_SLICE_S = 0.01


class ReferenceSlice:
    """A fixed mix of the kinds of work the workloads do."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.square = rng.standard_normal((64, 64))
        self.batch = rng.standard_normal((64, 8, 8))
        self.tall = rng.standard_normal((4000, 60))
        self.coef = rng.standard_normal((60, 20))

    def __call__(self):
        """Run the slice once; returns its duration in seconds."""
        start = time.perf_counter()
        for _ in range(8):
            np.linalg.svd(self.square, compute_uv=False)
            (self.tall @ self.coef).sum()
        for _ in range(4):
            np.linalg.svd(self.batch, compute_uv=False)
        acc = 0
        for i in range(10000):
            acc += i % 7
        return time.perf_counter() - start


class HostSpeed:
    """Samples the reference slice on a wall-clock timer while active.

    Use as a context manager around the timed region; signal handlers only
    run on the main thread, which is where every workload runs.
    """

    def __init__(self, interval=0.25):
        self.interval = interval
        self.slice = ReferenceSlice()
        self.durations = []
        self._busy = False
        self._previous = None

    def sample(self):
        if self._busy:
            return
        self._busy = True
        try:
            self.durations.append(self.slice())
        finally:
            self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @property
    def spent(self):
        """Wall time taken by the slices themselves."""
        return sum(self.durations)

    def factor(self):
        """Mean host speed over the samples relative to the reference
        (below 1 when the host ran slower)."""
        if not self.durations:
            self.sample()
        return float(np.mean([REFERENCE_SLICE_S / d for d in self.durations]))
