"""Machine-speed calibration for the timed runs.

On a host shared with other tenants the speed of a core drifts by tens of
percent within seconds, with their load. A fixed kernel (dict, JSON and
small numpy work, the mix provlens itself runs) is timed every PERIOD_S
from a SIGALRM handler while ops run. An op's cost in kernels, the integral
over the op of the speed the samples show (op time times the mean of
1 / kernel time), cancels most of that drift; its time in seconds does not.
The handler runs in the main thread between bytecodes; timings taken on
``Calibrator.clock`` leave the kernel's time out.
"""

from __future__ import annotations

import bisect
import json
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
AROUND_S = 0.5  # samples this close to an op describe its speed too
MIN_SAMPLES = 5  # if fewer, the samples nearest to the op do
# A cost in kernels times this is in seconds at the speed where the kernel
# takes 1.5 ms, a round figure near its time on a 2-vCPU Intel Xeon host.
NOMINAL_KERNEL_S = 1.5e-3
_MATRIX = np.linspace(0.0, 1.0, 48 * 48).reshape(48, 48)


def kernel() -> None:
    counts: dict[str, int] = {}
    for i in range(3000):
        key = f"id::{i % 97}"
        counts[key] = counts.get(key, 0) + i
    json.loads(json.dumps(counts, sort_keys=True))
    m = _MATRIX
    for _ in range(6):
        m = np.sort(m @ _MATRIX.T * 0.01, axis=1)


class Calibrator:
    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self.stolen = 0.0

    def clock(self) -> float:
        """``time.perf_counter()`` minus the kernel time so far."""
        while True:
            stolen = self.stolen
            now = time.perf_counter()
            if stolen == self.stolen:  # no sample landed in between
                return now - stolen

    def __enter__(self):
        kernel()  # first-use costs stay out of the samples
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        took = time.perf_counter() - start
        self.starts.append(start)
        self.seconds.append(took)
        self.stolen += took

    def _range(self, t0: float, t1: float) -> slice:
        return slice(bisect.bisect_left(self.starts, t0),
                     bisect.bisect_right(self.starts, t1))

    def kernels(self, t0: float, t1: float, seconds: float) -> float:
        """Cost in kernels of ``seconds`` of work done between t0 and t1
        (``time.perf_counter()`` values)."""
        chosen = self.seconds[self._range(t0 - AROUND_S, t1 + AROUND_S)]
        if len(chosen) < MIN_SAMPLES:
            middle = (t0 + t1) / 2
            nearest = sorted(range(len(self.starts)),
                             key=lambda k: abs(self.starts[k] - middle))
            chosen = [self.seconds[k] for k in nearest[:MIN_SAMPLES]]
        return seconds * statistics.fmean(1.0 / k for k in chosen)
