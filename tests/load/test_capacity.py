"""Bisection capacity finder: bracket logic and determinism."""

import pytest

import repro.load.capacity as capacity_mod
from repro.load import (
    FixedSize,
    FleetSpec,
    LoadScenario,
    LoadSpecError,
    OpenLoop,
    SLO,
    find_capacity,
)
from repro.load.capacity import CapacityProbe


def _scenario():
    return LoadScenario(
        name="sweep",
        fleets=(FleetSpec("rpc", clients=4, arrival=OpenLoop(rate=25.0),
                          sizes=FixedSize(1024), route="remote",
                          service_ops=10, service_time=200e-6),),
        duration=0.15)


SLO_EASY = SLO(name="easy", p99_latency_us=1e9, min_goodput_fraction=0.0001)
SLO_TIGHT = SLO(name="tight", p99_latency_us=50_000.0,
                min_goodput_fraction=0.9)


class _FakeProbes:
    """Deterministic stand-in for _probe: pass below a cliff rate."""

    def __init__(self, cliff):
        self.cliff = cliff
        self.rates = []

    def __call__(self, scenario, slo, rate):
        self.rates.append(rate)
        passed = rate <= self.cliff
        return CapacityProbe(rate=rate, passed=passed,
                             delivered_rate=min(rate, self.cliff),
                             p50_us=100.0, p99_us=1000.0, verdict=None)


class TestBracketLogic:
    def test_low_failure_means_zero_capacity(self, monkeypatch):
        fake = _FakeProbes(cliff=50.0)
        monkeypatch.setattr(capacity_mod, "_probe", fake)
        result = find_capacity(_scenario(), SLO_TIGHT, low=100.0,
                               high=1000.0)
        assert result.capacity == 0.0
        assert result.first_failing_rate == 100.0
        assert fake.rates == [100.0]

    def test_high_pass_means_bracket_never_saturates(self, monkeypatch):
        fake = _FakeProbes(cliff=1e9)
        monkeypatch.setattr(capacity_mod, "_probe", fake)
        result = find_capacity(_scenario(), SLO_EASY, low=100.0,
                               high=1000.0)
        assert result.capacity == 1000.0
        assert result.first_failing_rate is None
        assert fake.rates == [100.0, 1000.0]

    def test_bisection_converges_on_cliff(self, monkeypatch):
        fake = _FakeProbes(cliff=400.0)
        monkeypatch.setattr(capacity_mod, "_probe", fake)
        result = find_capacity(_scenario(), SLO_TIGHT, low=100.0,
                               high=1000.0, tolerance=0.05, max_probes=20)
        assert result.capacity <= 400.0 < result.first_failing_rate
        # Converged: bracket within tolerance of the passing edge.
        assert (result.first_failing_rate - result.capacity
                <= 0.05 * result.capacity)

    def test_max_probes_caps_work(self, monkeypatch):
        fake = _FakeProbes(cliff=400.0)
        monkeypatch.setattr(capacity_mod, "_probe", fake)
        result = find_capacity(_scenario(), SLO_TIGHT, low=100.0,
                               high=1000.0, tolerance=0.001, max_probes=4)
        assert len(result.probes) == 4

    def test_on_probe_observes_each_step(self, monkeypatch):
        fake = _FakeProbes(cliff=400.0)
        monkeypatch.setattr(capacity_mod, "_probe", fake)
        seen = []
        result = find_capacity(_scenario(), SLO_TIGHT, low=100.0,
                               high=1000.0, max_probes=6,
                               on_probe=seen.append)
        assert [p.rate for p in result.probes] == [p.rate for p in seen]

    def test_validates_inputs(self):
        with pytest.raises(LoadSpecError):
            find_capacity(_scenario(), SLO_EASY, low=0.0, high=100.0)
        with pytest.raises(LoadSpecError):
            find_capacity(_scenario(), SLO_EASY, low=200.0, high=100.0)
        with pytest.raises(LoadSpecError):
            find_capacity(_scenario(), SLO_EASY, low=10.0, high=100.0,
                          tolerance=1.5)


class TestRealSearch:
    def test_small_search_is_deterministic(self):
        kwargs = dict(low=50.0, high=2000.0, tolerance=0.2, max_probes=4)
        a = find_capacity(_scenario(), SLO_TIGHT, **kwargs)
        b = find_capacity(_scenario(), SLO_TIGHT, **kwargs)
        assert a.as_dict() == b.as_dict()
        assert a.capacity > 0.0

    def test_probes_carry_verdicts(self):
        result = find_capacity(_scenario(), SLO_TIGHT, low=50.0,
                               high=2000.0, tolerance=0.2, max_probes=3)
        for probe in result.probes:
            assert probe.verdict.passed == probe.passed
            assert probe.verdict.scenario == "sweep"
