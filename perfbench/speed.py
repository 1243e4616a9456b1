"""Machine-speed normalisation for timings taken on a shared, noisy host.

On a machine shared with other tenants the speed of one core flips
between a fast and a slow state many times a second and drifts by +-30%
over minutes, so raw wall times of identical work spread far more than any
regression worth catching. A Speedometer runs small fixed pure-Python
kernels from a SIGALRM handler every PERIOD_S while the worker runs
eccmat, so they sample the core's speed on the same timeline as the work.
Each sample is a relative speed s_i = (kernel time at the reference
speed) / (kernel time now). Work that took t seconds while s_1..s_m were
sampled is reported as t * mean(s_i), the integral of the sampled speed:
its duration at the reference speed. (The mean of the speeds, not a median
of times, because the speed is bimodal within a second.) The kernels run
with the garbage collector off and free all they allocate, so eccmat's
heap cannot slow them, and they share no code with eccmat.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from array import array

PERIOD_S = 0.01

_TABLE = tuple(range(64))


def _arith_kernel() -> int:
    """Integer arithmetic and tuple indexing; allocates nothing tracked."""
    s = 0
    x = 12345
    t = _TABLE
    for _ in range(400):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        s += t[x & 63] * (x >> 16)
    return s


def _alloc_kernel() -> int:
    """Small lists, dicts and strings, each freed before the next."""
    s = 0
    for i in range(60):
        row = [i, i + 1, i + 2, i + 3]
        d = {"a": row, "b": i}
        s += len(str(row)) + d["b"]
    return s


# Each kernel with its time at the reference speed: about the mean-speed
# time of each on the 2-core machine where the baseline was recorded.
# Different code slows by different factors when the host is busy; taking
# turns between an arithmetic and an allocating kernel tracks eccmat's mix
# better than either alone.
KERNELS = ((_arith_kernel, 138_000), (_alloc_kernel, 90_000))


def _timed(kernel, ref_ns: int) -> float:
    """Run one kernel with the garbage collector off; its speed vs. the reference."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        a = time.perf_counter_ns()
        kernel()
        return ref_ns / (time.perf_counter_ns() - a)
    finally:
        if enabled:
            gc.enable()


def speed_now(repeats: int = 5) -> float:
    """Mean speed vs. the reference over a few back-to-back kernel runs."""
    speeds = [_timed(k, ref) for _ in range(repeats) for k, ref in KERNELS]
    return statistics.fmean(speeds)


def scaled_seconds(ns: int, speeds, lo: int, hi: int) -> float:
    """`ns` of work done while speeds[lo:hi] were sampled, in seconds at the
    reference speed. The samples just before and after the window count
    too, so that a call shorter than PERIOD_S still gets a local speed."""
    window = speeds[max(0, lo - 1) : hi + 1]
    if not window:
        return ns / 1e9
    return ns / 1e9 * statistics.fmean(window)


class Speedometer:
    """Samples the speed every PERIOD_S from a SIGALRM handler, taking
    turns between the kernels."""

    def __init__(self):
        self.speeds = array("d")
        self.handler_ns = 0

    def _tick(self, signum, frame):
        a = time.perf_counter_ns()
        kernel, ref_ns = KERNELS[len(self.speeds) % len(KERNELS)]
        self.speeds.append(_timed(kernel, ref_ns))
        self.handler_ns += time.perf_counter_ns() - a

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple:
        """A point in time: (samples so far, handler time so far)."""
        return len(self.speeds), self.handler_ns
