"""CPU-speed probe that follows the measured process from core to core.

On the shared 2-vCPU hosts this benchmark was written on, each core switches
between a fast state and one about 1.6 times slower, for seconds to minutes
at a time, independently of the other core and of steal time; a fixed
pure-Python loop took 9.5 ms or 15-17 ms of CPU depending on the state.
Raw run times of one commit spread by more than a quarter between runs.

So the benchmark reports times in reference seconds: measured seconds times
``REFERENCE_PROBE_S`` over the mean CPU time that a fixed probe took on the
same core during the same interval.  A sampler thread in the benchmark
process wakes every ``PERIOD_S``, moves itself to the core the child process
is running on, and times ``probe_work`` in its own thread CPU time.  It costs
about 1 ms per 100 ms of the child's core.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from fractions import Fraction

REFERENCE_PROBE_S = 0.001  # one reference second: the probe costs 1 ms
PERIOD_S = 0.1


def probe_work() -> Fraction:
    """Fixed work like the program's hot path: small Fraction sums and gcds."""
    s = Fraction(0)
    for i in range(1, 300):
        s += Fraction(1, i)
    return s


def _current_cpu(pid: int) -> int:
    with open(f"/proc/{pid}/stat") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])  # field 39: processor


class SpeedProbe:
    """Samples the speed of the core a followed process runs on."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter at end, probe CPU s)
        self._pid: int | None = None
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def follow(self, pid: int | None) -> None:
        self._pid = pid

    def _sample(self) -> None:
        c = time.thread_time()
        probe_work()
        self.samples.append((time.perf_counter(), time.thread_time() - c))

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            pid = self._pid
            if pid is not None:
                try:
                    os.sched_setaffinity(0, {_current_cpu(pid)})  # this thread only
                except (OSError, ValueError, IndexError):
                    pass  # the child has just exited
            self._sample()

    def scale(self, t0: float, t1: float) -> float:
        """Factor from measured to reference seconds for the interval [t0, t1]."""
        samples = list(self.samples)
        inside = [d for t, d in samples if t0 <= t <= t1]
        if len(inside) < 3:
            mid = (t0 + t1) / 2
            inside = [d for _, d in sorted(samples, key=lambda s: abs(s[0] - mid))[:3]]
        return REFERENCE_PROBE_S / statistics.mean(inside)
