"""Host-speed probe: scales a run's timings to a reference host speed.

The benchmark runs on a shared VM whose neighbours slow CPU-bound work,
by up to a third and for minutes at a time, so a whole run can read
slow.  kv-serve and cluster-store therefore time a fixed pure-Python
probe at points where their clients wait, and scale each timing by
``REFERENCE_S`` ÷ the probe's median time: a run on a host slowed by a
fifth reads about as it would on the reference host.  Every workload's
set-up time is scaled the same way.  ckpt's timings are not: its
fastest-pass figures held steadier unscaled (see ``README.md``).

The probe is the benchmark's own code, so a program change moves it
only by leaving threads running while it is taken.
"""

from __future__ import annotations

import time
from typing import List

from perfbench.stats import quantile

#: The probe's median time on the quiet 2-CPU development host.  It only sets
#: the scale; every run and commit is scaled to the same constant.
REFERENCE_S = 0.0003
_LOOPS = 5000


def _probe() -> int:
    total = 0
    for i in range(_LOOPS):
        total += i * i % 7
    return total


class HostSpeed:
    """Probe times of one run."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = time.perf_counter()
            _probe()
            self.samples.append(time.perf_counter() - t0)

    @property
    def factor(self) -> float:
        """``REFERENCE_S`` ÷ the median probe time: above 1 on a host
        faster than the reference.  Times are multiplied by it, rates
        divided."""
        if not self.samples:
            self.sample()
        return REFERENCE_S / quantile(self.samples, 0.5)
