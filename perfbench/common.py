"""Shared pieces of the three workloads: op records, metric helpers and
process figures."""

from __future__ import annotations

import os
import resource
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from perfbench.stats import quantile

MB = 1e6


@dataclass
class Op:
    """One operation a workload issued, as its client saw it."""

    kind: str  # "put" (write path) / "get" (read path) / "decode"
    latency_s: float
    ok: bool
    mb: float = 0.0  # fp32 MB of tensor data the op carried
    good: bool = True  # ok, not degraded and within the latency limit
    phase: str = ""


#: End-to-end figures too unsteady to bound, reported with the per-layer
#: figures of a traced run (measured on its untraced segment).
UNTRACED_DIAGNOSTICS = ("p99_ms", "put_p99_ms", "get_p99_ms", "goodput_rps")


def ms_quantile(ops: Sequence[Op], q: float) -> float:
    return 1e3 * quantile([op.latency_s for op in ops], q)


def mb_per_s(ops: Sequence[Op]) -> float:
    """fp32 MB carried by the ok ops over the time they took."""
    busy = sum(op.latency_s for op in ops if op.ok)
    return sum(op.mb for op in ops if op.ok) / busy if busy > 0 else 0.0


def fastest(durations: Sequence[float], share: float) -> List[int]:
    """Indices of the fastest ``share`` of equal-work samples (at least one).

    On a shared host other tenants slow the CPU in bursts, often well
    under a second long; the same work timed in short samples and judged
    by its fastest part reads the program's speed rather than the
    neighbours' load (the reasoning behind ``timeit``'s minimum).
    """
    count = max(1, int(round(share * len(durations))))
    return sorted(range(len(durations)), key=lambda i: durations[i])[:count]


def squared_error(original: np.ndarray, restored: np.ndarray) -> Tuple[float, float]:
    """``(reconstruction SSE, sum of squared deviations)``, pooled into NMSE."""
    x = original.astype(np.float64)
    delta = restored.astype(np.float64) - x
    return float(np.sum(delta * delta)), float(np.sum((x - x.mean()) ** 2))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system


@dataclass
class Segment:
    """Wall and CPU time of a measured stretch of a run; re-entering adds."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    _t0: float = field(default=0.0, repr=False)
    _c0: float = field(default=0.0, repr=False)

    def __enter__(self) -> "Segment":
        self._t0, self._c0 = time.perf_counter(), cpu_seconds()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s += time.perf_counter() - self._t0
        self.cpu_s += cpu_seconds() - self._c0

    @property
    def cpu_util(self) -> float:
        return self.cpu_s / self.wall_s if self.wall_s > 0 else 0.0


@dataclass
class Outcome:
    """What a workload's run hands back to the worker process."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    mismatches: List[str]
    mismatch_count: int
    record: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.mismatch_count == 0


def ok_share(ops: Sequence[Op]) -> float:
    return sum(1 for op in ops if op.ok) / len(ops) if ops else 0.0
