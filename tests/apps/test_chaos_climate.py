"""Tests for the chaos climate run: outage -> retry -> failover ->
probe -> recovery, with deterministic byte-identical traces."""

import filecmp

import pytest

from repro import obs as _obs
from repro.apps.climate import run_chaos_climate
from repro.obs.spans import PHASE_FAILOVER, PHASE_PROBE, PHASE_RETRY
from repro.obs.validate import validate_file


@pytest.fixture(scope="module")
def chaos():
    return run_chaos_climate(seed=0)


class TestRecoveryArc:
    def test_run_completes_and_recovers(self, chaos):
        assert chaos.climate.total_time > 0
        assert chaos.climate.events_processed > 0
        assert chaos.recovered, "TCP must come back after the outage"
        assert chaos.retries > 0
        assert chaos.failovers > 0
        assert chaos.probes > 0

    def test_window_sits_inside_the_run(self, chaos):
        assert 0 < chaos.outage_start < chaos.climate.total_time
        assert chaos.outage_start + chaos.outage_duration \
            < chaos.climate.total_time
        assert chaos.baseline_time > 0, "calibration run measured it"

    def test_fault_log_brackets_the_window(self, chaos):
        actions = [(action, scope) for _t, action, scope in chaos.fault_log]
        assert actions == [("fail", "A<->B/tcp"), ("restore", "A<->B/tcp")]

    def test_timeline_is_sorted_and_merged(self, chaos):
        rows = chaos.timeline()
        assert [t for t, _ in rows] == sorted(t for t, _ in rows)
        assert any("fault: fail" in line for _, line in rows)
        assert any("tcp down" in line for _, line in rows)
        assert any("tcp up" in line for _, line in rows)

    def test_recovery_spans_are_traced(self, chaos):
        assert chaos.runs, "observe=True collects the chaos run"
        phases = {span.phase for obs, _nexus in chaos.runs
                  for span in obs.spans}
        assert {PHASE_RETRY, PHASE_FAILOVER, PHASE_PROBE} <= phases


class TestTraceExport:
    def test_merged_trace_validates(self, chaos, tmp_path):
        path = tmp_path / "chaos_trace.json"
        _obs.export.write_merged_chrome_trace(str(path), chaos.runs)
        _kind, summary = validate_file(str(path))
        assert summary["span_events"] > 0
        assert summary["full_lifecycles"] > 0

    def test_two_seeded_runs_are_byte_identical(self, tmp_path):
        paths = []
        for attempt in range(2):
            result = run_chaos_climate(seed=0)
            path = tmp_path / f"trace_{attempt}.json"
            _obs.export.write_merged_chrome_trace(str(path), result.runs)
            paths.append(path)
        assert filecmp.cmp(*paths, shallow=False)


class TestExplicitWindow:
    def test_explicit_window_skips_calibration(self):
        result = run_chaos_climate(seed=0, outage_start=1.6,
                                   outage_duration=1.4, observe=False)
        assert result.baseline_time == 0.0
        assert result.runs == ()
        assert result.recovered
