"""Machine-speed calibration interleaved with the workload.

The reference host is a shared machine whose speed drifts by up to 2x over
seconds to minutes (see NOTES.md). A fixed calibration kernel, independent
of the program, is timed every INTERVAL seconds from a SIGALRM handler, so
it runs in the workload's own thread on the workload's own CPU, between
the program's bytecodes. Each stretch of program time between two kernel
runs is scaled by REFERENCE_KERNEL_S / (kernel time around it): the result
is the time the stretch would have taken at the speed at which the kernel
takes REFERENCE_KERNEL_S. Kernel time itself is not program time.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

INTERVAL = 0.2
# Kernel runs whose median sets the speed of the stretch between two runs.
SMOOTH = 6
# Back-to-back kernel runs whose median kernel_time() returns.
KERNEL_RUNS = 9
# About the median kernel time on the reference machine (NOTES.md); it only
# fixes the scale of the reported seconds.
REFERENCE_KERNEL_S = 0.002

_rng = np.random.default_rng(12345)
_M = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
_V = _rng.standard_normal(4) + 0j
_X = _rng.standard_normal((4, 256))
_Y = _rng.standard_normal((4, 2048))


def kernel() -> None:
    """A fixed mix of what the workloads spend their time on: interpreted
    Python, small dense solves, and element-wise ufuncs over short and long
    arrays."""
    acc = 0
    for i in range(3000):
        acc += (i * i) % 7
    for _ in range(60):
        np.linalg.solve(_M, _V)
    x = _X
    for _ in range(40):
        x = 0.999 * x + 0.001 * np.tanh(x)
    y = _Y
    for _ in range(8):
        y = 0.999 * y + 0.001 * np.sin(y)


def kernel_time() -> float:
    """Median time of KERNEL_RUNS back-to-back kernel runs."""
    times = []
    for _ in range(KERNEL_RUNS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return sorted(times)[KERNEL_RUNS // 2]


class Speedometer:
    """Records (start, end) of every kernel run while started."""

    def __init__(self):
        self.starts: list = []
        self.ends: list = []
        self._old = None
        self._busy = False

    def sample(self) -> None:
        if self._busy:  # an alarm during a kernel run: skip, keep order
            return
        self._busy = True
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        self.sample()
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old or signal.SIG_DFL)
        self.sample()

    def program_time(self, t0: float, t1: float) -> tuple:
        """(raw, scaled) program time in [t0, t1]: wall time minus kernel
        runs, and the same with each stretch scaled to reference speed.
        Needs a sample before t0 and after t1 (start() and stop() take
        one each)."""
        starts, ends = self.starts, self.ends
        i = bisect.bisect_right(ends, t0) - 1      # last kernel ended by t0
        j = bisect.bisect_left(starts, t1)          # first kernel starting at/after t1
        if i < 0 or j >= len(starts):
            raise ValueError("no calibration sample around the interval")
        raw = scaled = 0.0
        for k in range(i, j):
            a = max(t0, ends[k])
            b = min(t1, starts[k + 1])
            if b <= a:
                continue
            c = self._speed(k)
            raw += b - a
            scaled += (b - a) * REFERENCE_KERNEL_S / c
        return raw, scaled

    def _speed(self, k: int) -> float:
        """Kernel time for the stretch after sample k: the median of the
        SMOOTH samples around it, so that one disturbed kernel run does not
        scale a stretch on its own."""
        lo = max(0, k + 1 - SMOOTH // 2)
        window = sorted(e - s for s, e in zip(self.starts[lo:lo + SMOOTH],
                                              self.ends[lo:lo + SMOOTH]))
        return window[len(window) // 2]

    def kernel_times(self) -> np.ndarray:
        return np.asarray(self.ends) - np.asarray(self.starts)
