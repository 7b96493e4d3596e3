"""Report timings at a reference speed.

The host's speed drifts between states (on a shared 2-core machine the same
call can take 1.7x longer for a second at a time).  A fixed pure-Python kernel
is timed right before and right after each operation, and every SAMPLE_S
seconds during it (from a SIGALRM handler, so that a solve lasting seconds is
not judged by its two ends alone); every sample is the smaller of two passes.
The operation's time on `clock_ns`, which leaves out the time spent in the
handler, is scaled by NOMINAL_KERNEL_S over the mean kernel time.
The kernel mixes float arithmetic, frozen-dataclass copies and libm calls,
the same kinds of work the program's hot loops do, so both slow down together.
"""

from __future__ import annotations

import math
import signal
import time
from dataclasses import dataclass, replace

# Kernel time at the reference speed: the fast state of a 2-core x86-64 host
# under Python 3.11.7.  Changing it rescales every calibrated figure.
NOMINAL_KERNEL_S = 2.5e-4
SAMPLE_S = 0.02

_handler_ns = 0  # time spent in the sampler's handler since the process began


@dataclass(frozen=True)
class _State:
    x: float
    y: float
    step: int


def kernel() -> float:
    """Fixed work: never change it, or calibrated figures stop comparing."""
    s = _State(1.0, 0.5, 0)
    acc = 0.0
    for i in range(60):
        s = replace(s, x=s.x * 0.999 + math.sqrt(i + 1.0), step=i)
        acc += math.log(1.0 + s.x) + math.tan(0.3 + 1e-4 * i) + math.acos(0.5 * s.y)
    x = 1.0
    for i in range(600):
        x = x * 1.0000001 + 0.5 / (i + 1.0)
        acc += math.sqrt(x) if i & 1 else x * 0.5
    return acc


def kernel_time() -> float:
    """Kernel wall time: the smaller of two passes, so one interrupt does not count."""
    pc = time.perf_counter
    t0 = pc()
    kernel()
    t1 = pc()
    kernel()
    t2 = pc()
    return min(t1 - t0, t2 - t1)


def clock_ns() -> int:
    """perf_counter_ns less the time spent sampling: the program's own time."""
    return time.perf_counter_ns() - _handler_ns


class _Sampler:
    """Times the kernel on a wall-clock interval while an operation runs."""

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame):
        global _handler_ns
        t0 = time.perf_counter_ns()
        self.samples.append(kernel_time())
        _handler_ns += time.perf_counter_ns() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def timed(fn, *args):
    """(result, raw seconds, calibrated seconds) of fn(*args)."""
    k0 = kernel_time()
    with _Sampler() as sampler:
        t0 = clock_ns()
        result = fn(*args)
        raw = (clock_ns() - t0) * 1e-9
    k1 = kernel_time()
    speed = [k0, k1, *sampler.samples]
    return result, raw, raw * NOMINAL_KERNEL_S * len(speed) / sum(speed)
