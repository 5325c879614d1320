"""Rate control: hit a bitrate or distortion target by searching QP.

Video encoders expose exactly these two knobs ("set the bitrate
target", "constrain max distortion"); the paper's experiments sweep
both.  Fractional bitrates come out naturally because the float QP is
dithered across CTUs (see :class:`repro.codec.encoder.QpDither`).

Both targets go through one search, :func:`search_grid`, over the QP
grid a bisection to ``precision`` visits.  Where the fit test is
monotone in QP it returns the bisection's QP (and so its bytes) in
about four encodes instead of ten, aiming probes with a high-rate model.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable, Dict, Optional, Sequence, Tuple, TypeVar

import numpy as np

import repro.telemetry as telemetry
from repro.codec.encoder import EncodeResult, EncoderConfig, FrameEncoder

MIN_QP = 0.0
MAX_QP = 51.0

#: High-rate model of a transform codec: six QP steps double the
#: quantizer step, which costs about one bit per value ...
RATE_BITS_PER_QP = 1.0 / 6.0
#: ... and quadruples the MSE (two bits of log2 MSE per six QP).
LOG2_MSE_PER_QP = 1.0 / 3.0

T = TypeVar("T")


def grid_steps(precision: float) -> int:
    """Halvings a QP bisection makes: smallest ``K`` with a step <= precision."""
    if not precision > 0:
        raise ValueError(f"precision must be > 0, got {precision}")
    steps, width = 0, MAX_QP - MIN_QP
    while width > precision:
        steps, width = steps + 1, width / 2.0
    return steps


def _log2(value: float) -> float:
    return math.log2(value) if value > 0 else -math.inf


def search_grid(
    probe: Callable[[float], T],
    measure: Callable[[T], float],
    target: float,
    rate: bool,
    precision: float = 0.25,
) -> Tuple[float, T, bool]:
    """Search the QP grid for the bisection's answer; ``(qp, result, met)``.

    ``probe(qp)`` encodes at a grid QP, ``measure(result)`` reads the value
    held to ``<= target``: a rate (falls with QP, ``rate=True``) or a
    distortion (rises with QP).  The result meets the target next to a grid
    point that does not -- the next finer one for a rate, the next coarser
    one for a distortion, where the grid top counts as missing unprobed.
    With no fitting probe, ``met`` is False and the result is the coarsest
    encode (rate) or the finest (distortion).

    Probes: the grid midpoint; then high-rate model steps until bracketed;
    then Illinois regula falsi, clamped strictly inside the bracket.  A
    model step is taken only while bisection could still close the bracket
    within ``2 * K + 2`` probes should the step gain a single grid point,
    so ``K`` halvings never cost more than that.  No grid point is probed
    twice.
    """
    steps = grid_steps(precision)
    top = 1 << steps
    unit = math.ldexp(MAX_QP - MIN_QP, -steps)  # QP per grid step
    per_qp = RATE_BITS_PER_QP if rate else LOG2_MSE_PER_QP

    def qp_at(index: int) -> float:
        return MIN_QP + index * unit

    # Open bracket (low, high): probes at or below ``low`` lie on the fine
    # side of the answer, at or above ``high`` on the coarse side; the
    # initial ends count without a probe.
    tried: Dict[int, T] = {}
    gaps: Dict[int, float] = {}
    low, high = -1, (top + 1 if rate else top)
    index = top // 2
    last_side: Optional[bool] = None
    while True:
        result = tried[index] = probe(qp_at(index))
        value = measure(result)
        # Modelled grid steps to the target: positive means coarser.
        excess = value - target if rate else _log2(target) - _log2(value)
        gaps[index] = excess / per_qp / unit
        coarse_side = (value <= target) == rate
        if coarse_side:
            high = index
        else:
            low = index
        if high - low <= 1:
            break
        bracketed = low in gaps and high in gaps
        if bracketed and last_side is coarse_side:
            # Illinois: the same end moved twice, so damp the other one.
            gaps[low if coarse_side else high] /= 2.0
        last_side = coarse_side

        # Model only while bisection, needing the bit length of (width - 2)
        # probes, could still finish in bound after a one-point gain.
        guess = math.nan
        if len(tried) + 1 + (high - low - 2).bit_length() <= 2 * steps + 2:
            if bracketed:
                spread = gaps[low] - gaps[high]
                if spread > 0:
                    guess = low + (high - low) * gaps[low] / spread
            else:
                guess = index + gaps[index]
        if math.isfinite(guess):
            index = min(max(round(guess), low + 1), high - 1)
        else:
            index = (low + high) // 2

    fit = high if rate else low
    if fit in tried:
        return qp_at(fit), tried[fit], True
    end = low if rate else high
    return qp_at(end), tried[end], False


def encode_at_qp(
    frames: Sequence[np.ndarray], qp: float, config: Optional[EncoderConfig] = None
) -> EncodeResult:
    """Encode at a specific (possibly fractional) QP."""
    base = config or EncoderConfig()
    telemetry.count("ratecontrol.iterations")
    return FrameEncoder(replace(base, qp=qp)).encode(frames)


def search_qp_for_mse(
    frames: Sequence[np.ndarray],
    max_mse: float,
    config: Optional[EncoderConfig] = None,
    precision: float = 0.25,
) -> Tuple[float, EncodeResult]:
    """Largest grid QP (fewest bits) whose pixel-domain MSE meets ``max_mse``.

    When even QP 0 misses the target, returns QP 0's encode and counts
    ``ratecontrol.target_miss``.
    """
    with telemetry.span("ratecontrol.search_mse"):
        qp, result, met = search_grid(
            lambda q: encode_at_qp(frames, q, config),
            lambda r: r.mse, max_mse, rate=False, precision=precision,
        )
    if not met:
        telemetry.count("ratecontrol.target_miss")
    return qp, result


def search_qp_for_bitrate(
    frames: Sequence[np.ndarray],
    bits_per_value: float,
    config: Optional[EncoderConfig] = None,
    precision: float = 0.25,
) -> Tuple[float, EncodeResult]:
    """Smallest grid QP (best quality) whose rate fits the bit budget.

    When even QP 51 overshoots the budget, returns that coarsest encode
    and counts ``ratecontrol.target_miss``.
    """
    with telemetry.span("ratecontrol.search_bitrate"):
        qp, result, met = search_grid(
            lambda q: encode_at_qp(frames, q, config),
            lambda r: r.bits_per_value, bits_per_value, rate=True,
            precision=precision,
        )
    if not met:
        telemetry.count("ratecontrol.target_miss")
    return qp, result
