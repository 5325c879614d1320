"""Differential test: the model-guided QP grid search vs QP bisection.

The reference oracle below is the plain QP bisection that rate control
ran before :func:`repro.codec.ratecontrol.search_grid` replaced it, kept
verbatim in behaviour (same probes, same edge branches).  Wherever the
fit test is monotone over the grid, the search must return the very same
QP, bytes and ``budget_met``; on non-monotone and adversarial measures it
must still return a grid point that meets the target next to one that
does not, within ``2 * K + 2`` probes.
"""

import math

import numpy as np
import pytest

import repro.telemetry as telemetry
from repro.codec.encoder import EncoderConfig, FrameEncoder
from repro.codec.profiles import H264_PROFILE, H265_PROFILE
from repro.codec.ratecontrol import (
    MAX_QP,
    MIN_QP,
    grid_steps,
    search_grid,
    search_qp_for_bitrate,
    search_qp_for_mse,
)
from repro.models.synthetic_weights import weight_like
from repro.tensor.codec import TensorCodec, _stream_fixed_bits
from repro.tensor.precision import quantize_to_uint8

PROFILES = (H265_PROFILE, H264_PROFILE)
PRECISIONS = (0.25, 0.5)


# -- reference oracle: QP bisection -----------------------------------------


def bisect_for_bitrate(encode, rate_of, budget, precision=0.25):
    """Smallest QP under ``budget``; the coarsest encode if none is."""
    lo, hi = MIN_QP, MAX_QP
    best = encode(hi)
    best_qp = hi
    if rate_of(best) > budget:
        return hi, best, False
    low_result = encode(lo)
    if rate_of(low_result) <= budget:
        return lo, low_result, True
    while hi - lo > precision:
        mid = (lo + hi) / 2.0
        result = encode(mid)
        if rate_of(result) <= budget:
            best_qp, best = mid, result
            hi = mid
        else:
            lo = mid
    return best_qp, best, True


def bisect_for_mse(encode, mse_of, max_mse, precision=0.25):
    """Largest QP within ``max_mse``; QP 0's encode if none is."""
    lo, hi = MIN_QP, MAX_QP
    best_qp = lo
    best = encode(lo)
    if mse_of(best) > max_mse:
        return lo, best, False
    while hi - lo > precision:
        mid = (lo + hi) / 2.0
        result = encode(mid)
        if mse_of(result) <= max_mse:
            best_qp, best = mid, result
            lo = mid
        else:
            hi = mid
    return best_qp, best, True


def bisect_tensor_bitrate(codec, tensor, budget):
    """``TensorCodec.encode(bits_per_value=budget)`` by bisection."""
    frames, grids, layout, frame_shape = codec._to_frames(tensor)

    def encode(qp):
        return codec._encode_at(frames, grids, layout, frame_shape, tensor, qp)

    best = encode(MAX_QP)
    fixed_bits = 8.0 * (best.nbytes - len(best.data)) + _stream_fixed_bits(
        layout.num_tiles
    )
    if fixed_bits > 0.5 * budget * max(1, best.num_values):
        finest = encode(MIN_QP)
        finest.budget_met = False
        return finest
    _, best, met = bisect_for_bitrate(
        encode, lambda c: c.bits_per_value, budget, codec.qp_search_precision
    )
    if not met:
        best = encode(MIN_QP)
        best.budget_met = False
    return best


def bisect_tensor_mse(codec, tensor, max_mse):
    """``TensorCodec.encode(target_mse=max_mse)`` by bisection."""
    frames, grids, layout, frame_shape = codec._to_frames(tensor)

    def encode(qp):
        return codec._encode_at(frames, grids, layout, frame_shape, tensor, qp)

    _, best, _ = bisect_for_mse(
        encode, lambda c: codec._tensor_mse(c, tensor), max_mse,
        codec.qp_search_precision,
    )
    return best


def _same(actual, expected):
    assert actual.qp == expected.qp
    assert actual.budget_met == expected.budget_met
    assert actual.to_bytes() == expected.to_bytes()


def _frames(seed, size=32):
    return [quantize_to_uint8(weight_like(size, size, seed=seed + s))[0]
            for s in range(2)]


@pytest.fixture(scope="module")
def matrices():
    return [weight_like(32, 48, seed=seed) for seed in (1, 2)]


# -- real encodes: byte identity with bisection ------------------------------


@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
@pytest.mark.parametrize("precision", PRECISIONS)
class TestTensorCodecMatchesBisection:
    def test_bits_per_value(self, matrices, profile, precision):
        codec = TensorCodec(profile=profile, qp_search_precision=precision)
        for matrix in matrices:
            for budget in (2.0, 3.0):
                _same(codec.encode(matrix, bits_per_value=budget),
                      bisect_tensor_bitrate(codec, matrix, budget))

    def test_target_mse(self, matrices, profile, precision):
        codec = TensorCodec(profile=profile, qp_search_precision=precision)
        for matrix in matrices:
            for share in (1e-2, 1e-3):
                target = share * float(np.var(matrix))
                _same(codec.encode(matrix, target_mse=target),
                      bisect_tensor_mse(codec, matrix, target))


@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
@pytest.mark.parametrize("precision", PRECISIONS)
class TestRateControlMatchesBisection:
    def test_bitrate(self, profile, precision):
        config = EncoderConfig(profile=profile)
        frames = _frames(seed=3)

        def encode(qp):
            return FrameEncoder(EncoderConfig(profile=profile, qp=qp)).encode(frames)

        for budget in (1.5, 3.0):
            qp, result = search_qp_for_bitrate(frames, budget, config, precision)
            ref_qp, ref, met = bisect_for_bitrate(
                encode, lambda r: r.bits_per_value, budget, precision
            )
            assert met and (qp, result.data) == (ref_qp, ref.data)

    def test_mse(self, profile, precision):
        config = EncoderConfig(profile=profile)
        frames = _frames(seed=5)

        def encode(qp):
            return FrameEncoder(EncoderConfig(profile=profile, qp=qp)).encode(frames)

        for max_mse in (1.0, 10.0):
            qp, result = search_qp_for_mse(frames, max_mse, config, precision)
            ref_qp, ref, met = bisect_for_mse(
                encode, lambda r: r.mse, max_mse, precision
            )
            assert met and (qp, result.data) == (ref_qp, ref.data)


class TestEdgeBranches:
    def test_fixed_overhead_branch_needs_one_encode(self):
        tiny = np.arange(6, dtype=np.float32).reshape(2, 3)
        codec = TensorCodec()
        with telemetry.session() as registry:
            got = codec.encode(tiny, bits_per_value=3.0)
        assert not got.budget_met and got.qp == MIN_QP
        # The container size is known without an encode.
        assert registry.counters["tensor.encoder_runs"] == 1
        _same(got, bisect_tensor_bitrate(codec, tiny, 3.0))

    def test_unreachable_budget_returns_finest(self):
        # A +-1 checkerboard still costs 0.14 bits/value at QP 51, while
        # its fixed overhead is under half of a 0.1 bits/value budget.
        matrix = (np.indices((128, 128)).sum(axis=0) % 2 * 2 - 1).astype(np.float32)
        codec = TensorCodec()
        got = codec.encode(matrix, bits_per_value=0.1)
        assert not got.budget_met and got.qp == MIN_QP
        _same(got, bisect_tensor_bitrate(codec, matrix, 0.1))

    def test_budget_the_finest_encode_meets(self, matrices):
        codec = TensorCodec()
        got = codec.encode(matrices[0], bits_per_value=20.0)
        assert got.budget_met and got.qp == MIN_QP
        _same(got, bisect_tensor_bitrate(codec, matrices[0], 20.0))

    def test_mse_target_the_finest_encode_misses(self, matrices):
        codec = TensorCodec()
        with telemetry.session() as registry:
            got = codec.encode(matrices[0], target_mse=1e-20)
        assert got.qp == MIN_QP
        assert registry.counters.get("ratecontrol.target_miss") == 1
        _same(got, bisect_tensor_mse(codec, matrices[0], 1e-20))

    def test_ratecontrol_unreachable_budget_returns_coarsest(self):
        frames = _frames(seed=7)
        with telemetry.session() as registry:
            qp, result = search_qp_for_bitrate(frames, 0.0001)
        assert qp == MAX_QP
        assert registry.counters.get("ratecontrol.target_miss") == 1
        ref_qp, ref, met = bisect_for_bitrate(
            lambda q: FrameEncoder(EncoderConfig(qp=q)).encode(frames),
            lambda r: r.bits_per_value, 0.0001,
        )
        assert not met and (qp, result.data) == (ref_qp, ref.data)

    def test_ratecontrol_mse_never_encodes_qp_51(self, monkeypatch):
        frames = _frames(seed=9)
        qps = []
        original = FrameEncoder.encode

        def spy(self, frames_):
            qps.append(self.config.qp)
            return original(self, frames_)

        monkeypatch.setattr(FrameEncoder, "encode", spy)
        qp, _ = search_qp_for_mse(frames, 1e9)  # every QP meets it
        assert qp == MAX_QP - MAX_QP / 256
        assert MAX_QP not in qps

    def test_encoder_runs_per_weight_matrix(self):
        matrix = weight_like(32, 64, seed=0)
        with telemetry.session() as registry:
            TensorCodec().encode(matrix, bits_per_value=3.0)
        runs = registry.counters["tensor.encoder_runs"]
        assert runs <= 6  # bisection needed 10
        assert registry.counters["ratecontrol.iterations"] == runs


# -- synthetic measures: bisection identity, bounds, adversaries -------------


def _grid_probe(values, steps):
    """Probe over a precomputed curve; records every grid index asked for."""
    asked = []
    unit = (MAX_QP - MIN_QP) / (1 << steps)

    def probe(qp):
        index = round((qp - MIN_QP) / unit)
        assert MIN_QP + index * unit == qp  # exact grid QPs only
        asked.append(index)
        return index

    return probe, asked


def _check_result(values, target, rate, precision):
    """Run the search and assert the adjacent-pair contract and the bound."""
    steps = grid_steps(precision)
    top = 1 << steps
    probe, asked = _grid_probe(values, steps)
    qp, index, met = search_grid(probe, lambda i: values[i], target, rate,
                                 precision)
    assert len(asked) == len(set(asked))  # no grid point probed twice
    assert len(asked) <= 2 * steps + 2
    fits = [v <= target for v in values]
    if met:
        assert fits[index]
        if rate:
            assert index == 0 or not fits[index - 1]
        else:
            assert index == top - 1 or not fits[index + 1]
    else:
        assert index == (top if rate else 0) and not fits[index]
    return qp, index, met, asked


def _reference(values, target, rate, precision):
    steps = grid_steps(precision)
    probe, _ = _grid_probe(values, steps)
    if rate:
        return bisect_for_bitrate(probe, lambda i: values[i], target, precision)
    return bisect_for_mse(probe, lambda i: values[i], target, precision)


def _curves(top):
    x = np.arange(top + 1) / top
    rates = {
        "linear": 8.0 - 7.5 * x,
        "convex": 8.0 * np.exp(-4.0 * x),
        "concave": 8.0 - 7.9 * x**3,
        "plateaus": np.floor(16.0 * (1.0 - x)) / 2.0,
    }
    mses = {
        "exponential": 1e-4 * 2.0 ** (17.0 * x),
        "power": 1e-3 + x**4,
        "steps": 2.0 ** np.floor(12.0 * x),
    }
    return rates, mses


@pytest.mark.parametrize("precision", (0.25, 0.5, 1.0, 51.0))
def test_monotone_measures_match_bisection_everywhere(precision):
    top = 1 << grid_steps(precision)
    rates, mses = _curves(top)
    for rate, curves in ((True, rates), (False, mses)):
        for values in curves.values():
            values = [float(v) for v in values]
            targets = sorted(set(values)) + [min(values) / 2, max(values) * 2]
            for target in targets:
                qp, index, met, _ = _check_result(values, target, rate, precision)
                ref_qp, ref_index, ref_met = _reference(values, target, rate,
                                                        precision)
                assert (qp, index, met) == (ref_qp, ref_index, ref_met)


def test_non_monotone_measure_meets_target_next_to_a_miss():
    top = 1 << grid_steps(0.25)
    x = np.arange(top + 1)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        wiggle = rng.uniform(0.2, 1.0) * np.sin(x / rng.uniform(1.0, 8.0))
        rate = [float(v) for v in 8.0 - 7.0 * x / top + wiggle]
        mse = [float(v) for v in 2.0 ** (12.0 * x / top + 3.0 * wiggle)]
        for target in (2.0, 3.0, 4.5):
            _check_result(rate, target, True, 0.25)
            _check_result(mse, 2.0 ** (2.0 * target), False, 0.25)


@pytest.mark.parametrize("precision", (0.05, 0.25, 0.5, 3.0))
def test_adversarial_measures_stay_within_the_probe_bound(precision):
    steps = grid_steps(precision)
    top = 1 << steps
    target = 1.0
    worst = 0
    for seed in range(60):
        rng = np.random.default_rng(seed)
        edge = int(rng.integers(0, top + 2))
        kind = seed % 4
        values = []
        for i in range(top + 1):
            fits = i >= edge if kind < 3 else bool(rng.integers(0, 2))
            if kind == 0:  # huge gaps: the model jumps to the grid ends
                size = 1e9
            elif kind == 1:  # vanishing gaps: the model barely moves
                size = 1e-12
            else:  # gap sizes unrelated to the distance to the edge
                size = float(rng.uniform(1e-6, 1e3))
            values.append(target - size if fits else target + size)
        for rate in (True, False):
            measure = values if rate else [2.0 * target - v for v in values]
            *_, asked = _check_result(measure, target, rate, precision)
            worst = max(worst, len(asked))
    assert worst <= 2 * steps + 2


def test_undefined_measures_fall_back_to_bisection():
    top = 1 << grid_steps(0.25)
    values = [math.nan] * 100 + [0.0] * (top + 1 - 100)
    _, index, met, _ = _check_result(values, 0.5, True, 0.25)
    assert met and index == 100
    zero_mse = [0.0] * 40 + [1.0] * (top + 1 - 40)
    _, index, met, _ = _check_result(zero_mse, 0.0, False, 0.25)
    assert met and index == 39


def test_precision_must_be_positive():
    with pytest.raises(ValueError):
        grid_steps(0.0)
