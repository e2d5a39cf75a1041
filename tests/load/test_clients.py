"""The load engine end-to-end: determinism, routing, drain, chaos."""

import pytest

from repro.load import (
    ClosedLoop,
    FixedSize,
    FleetSpec,
    LoadScenario,
    OpenLoop,
    run_scenario,
)
from repro.simnet.faults import FaultPlan


def _open_scenario(**overrides):
    spec = dict(
        name="open",
        fleets=(FleetSpec("rpc", clients=4, arrival=OpenLoop(rate=50.0),
                          sizes=FixedSize(2048), route="remote"),),
        duration=0.2,
    )
    spec.update(overrides)
    return LoadScenario(**spec)


class TestOpenLoopRuns:
    def test_open_loop_delivers_offered_load(self):
        result = run_scenario(_open_scenario())
        assert result.offered > 0
        assert result.delivered == result.offered
        assert result.messages_dropped == 0
        fleet = result.fleets["rpc"]
        assert fleet.offered_bytes == fleet.offered * 2048

    def test_byte_deterministic_across_runs(self):
        scenario = _open_scenario()
        a = run_scenario(scenario)
        b = run_scenario(scenario)
        assert a.offered == b.offered
        assert a.delivered == b.delivered
        assert a.sim_events == b.sim_events
        assert a.latency.counts == b.latency.counts
        assert a.latency.total == b.latency.total

    def test_seed_changes_traffic(self):
        a = run_scenario(_open_scenario(seed=0))
        b = run_scenario(_open_scenario(seed=1))
        assert (a.offered, a.sim_events) != (b.offered, b.sim_events)

    def test_remote_traffic_rides_tcp(self):
        result = run_scenario(_open_scenario())
        assert "tcp" in result.latency_by_method
        assert result.latency_by_method["tcp"].count > 0

    def test_local_route_stays_on_mpl(self):
        scenario = _open_scenario(
            name="local",
            fleets=(FleetSpec("near", clients=2,
                              arrival=OpenLoop(rate=50.0),
                              sizes=FixedSize(1024), route="local"),))
        result = run_scenario(scenario)
        assert result.delivered > 0
        # Fleet traffic stays on MPL; the only TCP RSRs are the
        # controller's stop signals to the remote-partition servers.
        assert result.latency_by_method["mpl"].count >= result.delivered
        tcp = result.latency_by_method.get("tcp")
        assert tcp is None or tcp.count <= scenario.remote_servers

    def test_merged_latency_covers_all_deliveries(self):
        result = run_scenario(_open_scenario())
        per_method = sum(h.count
                         for h in result.latency_by_method.values())
        assert result.latency.count == per_method

    def test_report_carries_phase_p99(self):
        result = run_scenario(_open_scenario())
        assert any(stats.p99_us >= stats.p50_us > 0
                   for stats in result.report.phases.values())


class TestClosedLoopRuns:
    def test_closed_loop_acks_every_delivery(self):
        scenario = LoadScenario(
            name="closed",
            fleets=(FleetSpec("users", clients=3,
                              arrival=ClosedLoop(think_time=0.01),
                              sizes=FixedSize(512), route="remote"),),
            duration=0.2)
        result = run_scenario(scenario)
        fleet = result.fleets["users"]
        assert fleet.offered > 0
        assert fleet.delivered == fleet.offered
        assert fleet.acked == fleet.delivered
        assert result.last_delivery_at > 0.0

    def test_mixed_fleets_account_separately(self):
        scenario = LoadScenario(
            name="mixed",
            fleets=(
                FleetSpec("rpc", clients=2, arrival=OpenLoop(rate=40.0),
                          sizes=FixedSize(2048), route="remote"),
                FleetSpec("users", clients=2,
                          arrival=ClosedLoop(think_time=0.02),
                          sizes=FixedSize(256), route="local"),
            ),
            duration=0.2)
        result = run_scenario(scenario)
        assert result.fleets["rpc"].delivered > 0
        assert result.fleets["users"].acked > 0
        assert not result.fleets["rpc"].closed
        assert result.fleets["users"].closed
        assert result.offered == (result.fleets["rpc"].offered
                                  + result.fleets["users"].offered)


class TestTuningAndChaos:
    def test_skip_poll_changes_latency_profile(self):
        base = _open_scenario()
        tuned = _open_scenario(skip_poll=(("tcp", 10),))
        a = run_scenario(base)
        b = run_scenario(tuned)
        # Same traffic either way; the tuning only moves sim time.
        assert a.offered == b.offered
        assert a.sim_events != b.sim_events

    def test_forwarding_reroutes_remote_traffic(self):
        from repro.place import forwarding_placement

        scenario = _open_scenario(placement=forwarding_placement())
        result = run_scenario(scenario)
        assert result.delivered == result.offered
        # Client -> forwarder legs ride TCP; the relayed hop rides MPL.
        assert result.latency_by_method["mpl"].count > 0

    def test_chaos_window_forces_retries_but_recovers(self):
        def chaos(bed):
            return FaultPlan(bed.nexus.network).flaky(
                bed.partition_a, bed.partition_b, transport="tcp",
                start=0.05, duration=0.05, drop_probability=0.3, seed=3)

        result = run_scenario(_open_scenario(chaos=chaos))
        assert result.retries > 0
        assert result.delivered > 0

    def test_drain_finishes_after_window(self):
        result = run_scenario(_open_scenario())
        assert result.drained_at >= result.scenario.duration
        assert result.elapsed >= result.scenario.duration
        assert result.delivered_rate == pytest.approx(
            result.delivered / result.elapsed)
