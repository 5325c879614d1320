"""Quantiles for the benchmark's latency figures."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile, ``q`` in [0, 1]; ``nan`` when empty,
    so a missing sample shows up instead of reading as zero."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    return float(np.quantile(values, q)) if len(values) else math.nan
