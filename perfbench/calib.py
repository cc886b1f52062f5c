"""Reference seconds: wall time scaled by the speed the machine has just then.

On a shared host the speed of a CPU drifts by a third and more within a
minute, and all code slows together: the package's own calls, a pure
Python loop and small numpy operations alike.  A wall time taken on such a
host mostly measures the neighbours.  So while a workload runs, a timer
signal interrupts it every PERIOD_S seconds and times a short fixed
calibration kernel (small numpy operations, plain Python and small tensor
contractions, the package's own mix).  A task's time is then reported as

    reference seconds = wall seconds * REF_KERNEL_S / kernel seconds

where the wall seconds leave out the time spent in the kernel, and the
kernel seconds are the median of the samples taken during the task and
the one on either side of it.  A reference second is the time in which
the kernel runs REF_KERNEL_S; a change to the package moves the task time
and not the kernel, so it moves reference seconds as it moves wall
seconds.  Wall times are reported beside them.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

import numpy as np

REF_KERNEL_S = 7e-4
PERIOD_S = 0.1
_M = np.linspace(-1.0, 1.0, 64).reshape(8, 8) / 4.0
_T = np.linspace(-1.0, 1.0, 12**3).reshape(12, 12, 12)
_A = np.linspace(-1.0, 1.0, 7**3).reshape(7, 7, 7)


def kernel() -> None:
    """Fixed work in four parts, as the package mixes them: small matrix
    operations (numpy dispatch), plain Python, 12^3 tensor contractions and
    rank-4 products of 7^3 tensors."""
    a = _M
    for _ in range(14):
        a = np.tanh(a @ _M) + 0.5 * a.T
    d, s = {}, 0
    for i in range(1000):
        d[i & 63] = s
        s += (i * i) % 7
    t = _T
    for _ in range(2):
        t = np.einsum("ijk,kjl->il", t, _T)[:, :, None] * _T * 0.01 + _T
    for _ in range(3):
        np.einsum("jkm,iml->ijkl", _A, _A) - np.einsum("ikm,jml->ijkl", _A, _A)


def kernel_seconds() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


class SpeedSampler:
    """Context manager that samples the kernel on a SIGALRM timer.

    ``to_ref(t0, t1)`` converts a wall interval taken inside the context
    into reference seconds.  Only one sampler may be active at a time.
    """

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.starts: list[float] = []  # perf_counter when each sample began
        self.kernel_s: list[float] = []
        self.paused: list[float] = [0.0]  # kernel seconds before each sample
        self._busy = False
        self._old = None

    def _sample(self, *_):
        if self._busy:  # a signal that arrives inside the kernel is dropped
            return
        self._busy = True
        t0 = perf_counter()
        kernel()
        k = perf_counter() - t0
        self.starts.append(t0)
        self.kernel_s.append(k)
        self.paused.append(self.paused[-1] + k)
        self._busy = False

    def __enter__(self):
        self._sample()
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()
        return False

    def to_ref(self, t0: float, t1: float) -> float:
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        wall = (t1 - t0) - (self.paused[hi] - self.paused[lo])
        k = statistics.median(self.kernel_s[max(0, lo - 1):hi + 1])
        return wall * REF_KERNEL_S / k

    def median_kernel_s(self) -> float:
        return statistics.median(self.kernel_s)
