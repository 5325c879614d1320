"""Seeded input generators, independent of the program under test.

Only numpy is used here so that a change to the program cannot change
the inputs it is measured on.  Every generator takes a
``numpy.random.Generator``; the same seed gives the same arrays.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

#: ckpt matrix shapes: several aspect ratios, none a multiple of the
#: 256-value default tile, one wider than a tile (two frames).  Ten
#: small matrices rather than a few large ones, so a seed's data-dependent
#: encode cost averages out within one pass.
CKPT_SHAPES: Tuple[Tuple[int, int], ...] = (
    (32, 64),
    (40, 36),
    (24, 150),
    (28, 48),
    (20, 50),
    (48, 32),
    (16, 96),
    (36, 40),
    (24, 64),
    (12, 300),
)

#: KV-block / activation shapes served by kv-serve and cluster-store.
KV_SHAPES: Tuple[Tuple[int, int], ...] = ((16, 64), (32, 64), (48, 64), (64, 64))


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per (seed, named stream)."""
    salt = int.from_bytes(stream.encode("utf-8"), "little") % (1 << 63)
    return np.random.default_rng([seed, salt])


def _lognormal_profile(rng: np.random.Generator, n: int, sigma: float) -> np.ndarray:
    """``n`` log-normal quantiles in random order: every seed gets the
    same spread of scales, only their placement differs."""
    from statistics import NormalDist

    z = np.array([NormalDist().inv_cdf((i + 0.5) / n) for i in range(n)])
    return rng.permutation(np.exp(sigma * z))


def weight_matrix(rng: np.random.Generator, shape: Tuple[int, int]) -> np.ndarray:
    """Weight-like fp32 matrix: channel-wise scales plus sparse outliers.

    Output channels (columns) get log-normal scales and 0.2 % of the
    entries are outliers of 10-30x the base scale, the structure LLM
    weights show (paper section 3.1).  The scale profile and the outlier
    values are fixed per shape, so seeds differ in placement and noise,
    not in kind, and quality figures repeat across seeds.
    """
    rows, cols = shape
    base = 0.02
    values = rng.standard_normal(shape) * (base * _lognormal_profile(rng, cols, 0.5))
    count = max(1, round(0.002 * rows * cols))
    where = rng.choice(rows * cols, size=count, replace=False)
    # Alternating signs, largest positive: each shape's value range, and
    # with it the quantization grid, is the same for every seed.
    signs = np.resize((1.0, -1.0), count)[::-1]
    values.reshape(-1)[where] = base * np.linspace(10.0, 30.0, count) * signs
    return values.astype(np.float32)


def kv_block(rng: np.random.Generator, shape: Tuple[int, int]) -> np.ndarray:
    """KV-cache / activation-like block: a few high-magnitude channels."""
    rows, cols = shape
    scales = _lognormal_profile(rng, cols, 0.3)
    hot = rng.choice(cols, size=max(1, cols // 16), replace=False)
    scales[hot] *= np.linspace(5.0, 15.0, hot.size)
    values = rng.standard_normal(shape) * scales
    return values.astype(np.float32)


def ckpt_matrices(seed: int) -> List[np.ndarray]:
    rng = rng_for(seed, "ckpt")
    return [weight_matrix(rng, shape) for shape in CKPT_SHAPES]


def kv_blocks(seed: int, stream: str, count: int) -> List[np.ndarray]:
    rng = rng_for(seed, stream)
    return [kv_block(rng, KV_SHAPES[i % len(KV_SHAPES)]) for i in range(count)]


def arrivals(phases: Sequence[Tuple[str, float, float]]) -> List[Tuple[float, str]]:
    """Open-loop schedule at a constant rate per phase.

    ``phases`` is a sequence of ``(name, rate_per_s, duration_s)``;
    returns ``(due offset s, phase)`` per request.  Evenly spaced
    arrivals keep the run-to-run spread low; the seed picks the requests.
    """
    schedule: List[Tuple[float, str]] = []
    start = 0.0
    for name, rate, duration in phases:
        count = int(round(rate * duration))
        schedule.extend((start + (i + 0.5) / rate, name) for i in range(count))
        start += duration
    return schedule
