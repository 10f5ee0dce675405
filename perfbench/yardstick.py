"""Fixed reference work that gauges the speed of the host, not of pcclone.

A shared machine can switch between speeds for seconds to minutes at a
time: on the 2-vCPU host the benchmark was built on, the same loop took
6.7 ms in one phase and 10.2 ms in the next, and a run of 25 s could sit
wholly in either phase.  Wall times from different runs then differ by up
to 50% with no change to the program.

run.py runs a yardstick twice before every timed call, times the second
run, and divides the call's time by the median yardstick time around it
(``normalise``).  A
call's time is then reported in milliseconds at the host speed where one
yardstick run takes ``YARDSTICK_MS[kind]``, so phases of the host cancel
while a faster or slower pcclone still shows in full.

A slow phase does not slow all code alike: interpreter-bound code slowed
by about 1.5x, code streaming arrays larger than the L2 cache by about
1.25x.  So there are two kinds of yardstick, and each workload uses the
kind that resembles its own work (``workloads.YARDSTICK``):

* ``python``: Python objects and text formatting, and products of 4 x 4
  complex matrices, like the per-row code of the sweeps and the optimizer;
* ``array``: element-wise maths and reductions over arrays of 2^18
  values, like the Monte Carlo kernels.

The yardsticks import nothing from pcclone and must be the same on both
commits of a comparison.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

#: each yardstick's time in the fast phase of the host it was built on
#: (Intel Xeon, 2 vCPUs); it only sets the scale of the reported times
YARDSTICK_MS = {"python": 3.0, "array": 14.0}

#: yardstick runs on each side of a call in the median that scales it
WINDOW = 7


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y


class Yardstick:
    """One run of ``work`` is the unit in which host speed is gauged."""

    def __init__(self, kind: str):
        if kind not in YARDSTICK_MS:
            raise ValueError(f"unknown yardstick {kind!r}; expected one of {tuple(YARDSTICK_MS)}")
        self.kind = kind
        rng = np.random.default_rng(2007)
        self.records = [{"a": i, "b": i * 0.1, "c": f"x{i}"} for i in range(180)]
        self.small = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
                      for _ in range(8)]
        self.large = rng.standard_normal(1 << 18)

    def work(self) -> float:
        if self.kind == "array":
            waves = np.exp(1j * self.large)
            return (np.einsum("i,i->", waves, waves.conj()).real
                    + float(np.cumsum(self.large)[-1]))
        lines = []
        for record in self.records:
            point = _Point(record["a"], record["b"])
            lines.append(f"{point.x},{point.y:.10g},{record['c']}")
        total = float(len(json.loads(json.dumps(self.records))))
        total += len(",".join(lines).split(","))
        for k in range(90):
            m = self.small[k % 8]
            total += np.trace(m @ m.conj().T).real
            total += np.kron(self.small[0][:2, :2], self.small[1][:2, :2])[0, 0].real
        return total

    def time(self) -> float:
        """Seconds taken by one run of the work."""
        start = time.perf_counter()
        self.work()
        return time.perf_counter() - start


def scale(seconds: float, gauges: list[float], kind: str) -> float:
    """``seconds`` at the host speed where a ``kind`` yardstick run takes
    YARDSTICK_MS[kind], judged by the median of the yardstick times
    ``gauges`` taken around it."""
    return seconds * YARDSTICK_MS[kind] * 1e-3 / statistics.median(gauges)


def normalise(times: list[float], gauges: list[float], kind: str) -> list[float]:
    """Scale each of ``times`` by the yardstick times around it.

    ``gauges[i]`` is the yardstick time taken just before ``times[i]``; the
    median runs over the ``WINDOW`` gauges on each side, so one disturbed
    yardstick run moves no call.
    """
    return [scale(t, gauges[max(0, i - WINDOW):i + WINDOW + 1], kind)
            for i, t in enumerate(times)]
