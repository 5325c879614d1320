import math

import pytest

from perfbench import ckpt
from perfbench.common import fastest
from perfbench.hostspeed import REFERENCE_S, HostSpeed
from perfbench.stats import quantile


def test_quantile_interpolates_linearly():
    assert quantile([1.0, 2.0, 3.0, 4.0], 0.25) == 1.75
    assert quantile([20.0, 10.0], 0.99) == pytest.approx(19.9)
    assert quantile([5.0, 1.0, 3.0], 0.5) == 3.0


def test_quantile_edges():
    assert math.isnan(quantile([], 0.5))
    assert quantile([3.0], 0.99) == 3.0
    with pytest.raises(ValueError):
        quantile([1.0], 1.5)


def test_fastest_picks_the_fastest_share():
    durations = [0.030, 0.020, 0.090, 0.021, 0.025, 0.040, 0.022, 0.500]
    assert sorted(fastest(durations, 0.25)) == [1, 3]
    assert fastest(durations, 0.01) == [1]  # never empty
    assert sorted(fastest(durations, 1.0)) == list(range(8))


def test_ckpt_times_each_matrix_at_its_fastest_pass():
    passes = [ckpt._Pass() for _ in range(3)]
    for p, enc in zip(passes, ((0.2, 0.5), (0.3, 0.4), (0.9, 0.9))):
        p.encode_s = dict(enumerate(enc))
    del passes[1].encode_s[1]  # a matrix that failed in one pass
    assert ckpt._fastest(passes, "encode_s") == {0: 0.2, 1: 0.5}


def test_host_speed_factor_scales_to_the_reference():
    speed = HostSpeed()
    speed.samples = [2 * REFERENCE_S, 4 * REFERENCE_S, 2 * REFERENCE_S]
    assert speed.factor == pytest.approx(0.5)  # a host half as fast: times halve
    fresh = HostSpeed()
    assert fresh.factor > 0 and len(fresh.samples) == 1  # probes when nothing was sampled
