"""Arrival processes and size distributions: determinism and shape."""

import pytest

from repro.load.arrivals import (
    Bursty,
    ClosedLoop,
    FixedSize,
    LoadSpecError,
    LognormalSize,
    MixedRoundPattern,
    OpenLoop,
)
from repro.simnet.random import derived_generator


def _rng(name="test", seed=0):
    return derived_generator(seed, name)


class TestSizeDists:
    def test_fixed(self):
        dist = FixedSize(2048)
        assert dist.sample(_rng()) == 2048

    def test_fixed_rejects_negative(self):
        with pytest.raises(LoadSpecError):
            FixedSize(-1)

    def test_lognormal_capped_and_positive_skew(self):
        dist = LognormalSize(median=512.0, sigma=1.0, cap=4096)
        rng = _rng("ln")
        draws = [dist.sample(rng) for _ in range(500)]
        assert all(0 <= d <= 4096 for d in draws)

    def test_lognormal_rejects_cap_below_median(self):
        with pytest.raises(LoadSpecError):
            LognormalSize(median=512.0, cap=256)


class TestOpenLoop:
    def test_rate_must_be_positive(self):
        with pytest.raises(LoadSpecError):
            OpenLoop(rate=0.0)

    def test_times_deterministic_and_ordered(self):
        arrival = OpenLoop(rate=100.0)
        first = list(arrival.times(_rng("a", seed=5), 0.0, 2.0))
        second = list(arrival.times(_rng("a", seed=5), 0.0, 2.0))
        assert first == second
        assert first == sorted(first)
        assert all(0.0 <= t < 2.0 for t in first)
        # ~200 expected arrivals; allow wide stochastic slack.
        assert 120 < len(first) < 300

    def test_mean_rate_approximates_nominal(self):
        arrival = OpenLoop(rate=500.0)
        count = len(list(arrival.times(_rng("b"), 0.0, 4.0)))
        assert count == pytest.approx(2000, rel=0.15)

    def test_bursty_concentrates_arrivals_in_duty_window(self):
        arrival = OpenLoop(rate=200.0,
                           modulation=Bursty(period=1.0, duty=0.2,
                                             boost=4.0, quiet=0.25))
        times = list(arrival.times(_rng("c"), 0.0, 20.0))
        in_burst = sum(1 for t in times if (t % 1.0) < 0.2)
        # burst window carries 4.0*0.2 = 0.8 of the mass vs 0.25*0.8 = 0.2
        assert in_burst / len(times) > 0.6

    def test_modulation_factor_bounded_by_peak(self):
        bursty = Bursty(period=1.0, duty=0.3, boost=3.0, quiet=0.1)
        for t in [x / 10 for x in range(25)]:
            assert 0.0 <= bursty.factor(t) <= bursty.peak

    def test_bad_modulations_rejected(self):
        with pytest.raises(LoadSpecError):
            Bursty(period=0.0)
        with pytest.raises(LoadSpecError):
            Bursty(period=1.0, duty=1.5)


class TestClosedLoop:
    def test_think_time_jitter_and_exact(self):
        exact = ClosedLoop(think_time=0.5, jitter=False)
        assert exact.think(_rng()) == 0.5
        jittered = ClosedLoop(think_time=0.5)
        rng = _rng("t")
        draws = [jittered.think(rng) for _ in range(500)]
        assert sum(draws) / len(draws) == pytest.approx(0.5, rel=0.2)

    def test_zero_think_is_zero_even_with_jitter(self):
        assert ClosedLoop(think_time=0.0).think(_rng()) == 0.0

    def test_negative_think_rejected(self):
        with pytest.raises(LoadSpecError):
            ClosedLoop(think_time=-1.0)


class TestMixedRoundPattern:
    def test_default_schedule(self):
        pattern = MixedRoundPattern()
        ops = list(pattern.rounds(10))
        assert [op.index for op in ops] == list(range(10))
        assert all(op.local_bytes == 2048 for op in ops)
        remote = [op.index for op in ops if op.remote_bytes is not None]
        assert remote == [0, 5]

    def test_rejects_bad_spec(self):
        with pytest.raises(LoadSpecError):
            MixedRoundPattern(remote_every=0)
        with pytest.raises(LoadSpecError):
            MixedRoundPattern(local_bytes=-1)
