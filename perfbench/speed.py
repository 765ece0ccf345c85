"""Pass times in units of a reference kernel sampled during the pass.

On a shared host the CPU a run gets can turn 1.5-2x slower for seconds
at a time, so the same pass measures very differently from one run to
the next. ``SpeedSampler`` tracks that speed: while it is active, a
SIGALRM handler runs a fixed reference kernel every ``INTERVAL_S`` of
wall time and times it. The kernel mixes the two kinds of work the
package's commands do, a pure-Python float loop and products of a small
numpy matrix. A stretch of ``d`` seconds that ends with a kernel taking
``r`` seconds counts ``d / r`` units, so ``units`` is the pass time
expressed in kernel runs, and a slowdown that hits the pass and the
kernel alike cancels out. ``clock()`` leaves out the time the handler
spends in the kernel. The handler stays installed once a block has run,
so a signal still pending when a block ends is ignored rather than
reaching the default action.
"""
from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.02
_MATRIX = np.arange(16.0).reshape(4, 4) / 16.0
_VECTOR = np.ones(4)


def reference_kernel() -> float:
    """Fixed work of about 0.3 ms: half Python loop, half numpy calls."""
    total = 0.0
    for i in range(1500):
        total += (i * 0.5) % 3.0
    for _ in range(100):
        total += float((_MATRIX @ _VECTOR)[1])
    return total


class SpeedSampler:
    """Context manager; each ``with`` block counts its own ``units``."""

    def __init__(self) -> None:
        self.spent = 0.0      # seconds spent in the kernel, over all blocks
        self.units = 0.0
        self.samples = 0
        self._mark = 0.0      # clock() at the last sample
        self._kernel_s = 0.0  # duration of the last kernel run
        self._active = False
        for _ in range(20):   # warm the kernel's code paths before any sample
            reference_kernel()

    def clock(self) -> float:
        """perf_counter() less the time spent in the kernel."""
        return time.perf_counter() - self.spent

    def _sample(self, signum=None, frame=None) -> None:
        if not self._active:
            return
        now = self.clock()
        start = time.perf_counter()
        reference_kernel()
        self._kernel_s = time.perf_counter() - start
        self.spent += self._kernel_s
        if self.samples:
            self.units += (now - self._mark) / self._kernel_s
        self.samples += 1
        self._mark = now

    def __enter__(self) -> "SpeedSampler":
        self.units, self.samples = 0.0, 0
        self._active = True
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self._active = False
        # the stretch after the last sample counts at the last kernel's speed
        self.units += (self.clock() - self._mark) / self._kernel_s
