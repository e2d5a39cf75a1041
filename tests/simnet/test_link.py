"""Tests for link profiles."""

import pytest

from repro.simnet import LinkProfile
from repro.simnet.errors import SimnetError
from repro.util.units import MB, dilate, mbps, milliseconds


def profile(**overrides):
    defaults = dict(name="test", latency=milliseconds(1.0),
                    bandwidth=mbps(10.0))
    defaults.update(overrides)
    return LinkProfile(**defaults)


class TestLinkProfile:
    def test_serialization_time(self):
        p = profile(bandwidth=mbps(10.0))
        assert p.serialization_time(10 * MB) == pytest.approx(1.0)
        assert p.serialization_time(0) == 0.0

    def test_negative_size_rejected(self):
        with pytest.raises(SimnetError):
            profile().serialization_time(-1)

    def test_validation(self):
        with pytest.raises(SimnetError):
            profile(latency=-1.0)
        with pytest.raises(SimnetError):
            profile(bandwidth=0.0)
        with pytest.raises(SimnetError):
            profile(drop_probability=1.5)

    def test_scaled(self):
        p = dilate(profile(send_overhead=1e-4, drop_probability=0.5), 2.0)
        assert (p.latency, p.bandwidth) == (milliseconds(2.0), mbps(5.0))
        assert (p.send_overhead, p.drop_probability) == (2e-4, 0.5)
