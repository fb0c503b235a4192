"""Machine-speed calibration for the benchmark's timings.

Times are reported in reference seconds: measured seconds times the speed
scale, CALIBRATION_REF_S over the median time of a fixed calibration kernel
sampled every SAMPLE_EVERY_S throughout the same interval, with the samples'
own time taken out of the measurement.  The kernel takes about
CALIBRATION_REF_S on the machine the benchmark was defined on (Intel Xeon,
2 vCPUs, Python 3.11) when nothing else runs on its cores; on that shared box
the speed of the kernel and of the workloads drifts together by up to ~40%
over tens of seconds, and the scale takes most of that drift out.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter, process_time

CALIBRATION_REF_S = 1.5e-3
SAMPLE_EVERY_S = 0.05


def calibration_kernel() -> int:
    """A fixed pure-Python integer loop; it touches no tateops code."""
    total = 0
    for i in range(20000):
        total += (i * i) % 7
    return total


class Speedometer:
    """Times the calibration kernel from a SIGALRM handler every
    SAMPLE_EVERY_S of wall time, so long calls are sampled too, and keeps
    the wall and CPU time the samples take."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0

    def sample(self, *_) -> None:
        w0, c0 = perf_counter(), process_time()
        calibration_kernel()
        w1, c1 = perf_counter(), process_time()
        self.samples.append(w1 - w0)
        self.spent_wall += w1 - w0
        self.spent_cpu += c1 - c0

    def spent(self) -> tuple[float, float]:
        return self.spent_wall, self.spent_cpu

    def __enter__(self):
        for _ in range(5):
            self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(5):
            self.sample()

    def scale(self) -> float:
        return CALIBRATION_REF_S / statistics.median(self.samples)


def calibrated(fn):
    """(fn(speedometer), seconds fn took without the samples, speed scale)."""
    with Speedometer() as speed:
        t0, spent0 = perf_counter(), speed.spent_wall
        result = fn(speed)
        raw = perf_counter() - t0 - (speed.spent_wall - spent0)
    return result, raw, speed.scale()
