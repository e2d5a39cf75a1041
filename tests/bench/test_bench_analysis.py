"""The analysis artefact: shape criteria, recording, deterministic exports."""

import json

import pytest

from repro.bench.__main__ import main as bench_main
from repro.bench.analysis import (
    chaos_scenario,
    chaos_slo,
    check_analysis_shape,
    forwarding_scenario,
)
from repro.bench.record import BenchRecord
from repro.obs.validate import validate_file


@pytest.fixture(scope="module")
def bench(bench_result, bench_exports):
    return bench_result("analysis"), bench_exports / "analysis"


class TestScenarioDefinitions:
    def test_chaos_has_a_failover_method_available(self):
        assert "udp" in chaos_scenario().transports

    def test_forwarding_run_forwards(self):
        scenario = forwarding_scenario()
        assert scenario.placement.forwarder is not None
        assert scenario.remote_servers == 3

    def test_chaos_slo_is_detection_only(self):
        slo = chaos_slo()
        assert slo.window_p99_latency_us is not None
        assert not slo.enforce_windows


class TestShape:
    def test_shape_criteria_hold(self, bench):
        check_analysis_shape(bench[0])

    def test_render_covers_all_three_surfaces(self, bench):
        text = bench[0].render()
        assert "Windowed SLO under chaos" in text
        assert "Communication graph" in text
        assert "critical paths" in text


class TestExports:
    def test_all_four_documents_are_written_and_valid(self, bench):
        _, export_dir = bench
        for name, kind in (("timeline.json", "repro.obs.timeline"),
                           ("graph.json", "repro.obs.graph"),
                           ("critpath.json", "repro.obs.critpath")):
            found, _summary = validate_file(str(export_dir / name))
            assert found.id == kind
        dot = (export_dir / "graph.dot").read_text()
        assert dot.startswith('digraph "analysis-forward" {')

    def test_timeline_meta_carries_the_fault_log(self, bench):
        result, export_dir = bench
        document = json.loads((export_dir / "timeline.json").read_text())
        logged = [tuple(entry) for entry in document["meta"]["fault_log"]]
        assert logged == list(result.chaos_result.fault_log)
        assert {action for _t, action, _d in logged} \
            == {"flaky", "clear_flaky"}


class TestRecording:
    def test_record_covers_every_surface(self, bench):
        record = BenchRecord(label="x")
        record.extend("analysis", bench[0].metrics())
        metrics = record.to_document()["artefacts"]["analysis"]["metrics"]
        assert metrics["chaos.slo_passed"]["value"] == 1
        assert metrics["chaos.window_violations"]["value"] > 0
        assert metrics["chaos.recovery_ms"]["value"] > 0
        assert metrics["graph.edges"]["value"] > 0
        assert 0.0 < metrics["graph.cut_fraction_bytes"]["value"] < 1.0
        assert metrics["critpath.paths"]["value"] > 0
        assert any(name.startswith("critpath.phase.") for name in metrics)


def test_options_do_not_outlive_a_call(tmp_path, capsys):
    """``--export-dir`` used to be parked in a module global that
    ``main()`` never reset, so a later run in the same process re-wrote
    the earlier run's directory."""
    exports = tmp_path / "exports"
    assert bench_main(["analysis", "--export-dir", str(exports)]) == 0
    written = sorted(path.name for path in exports.iterdir())
    assert written == ["critpath.json", "graph.dot", "graph.json",
                       "timeline.json"]
    for path in exports.iterdir():
        path.unlink()
    assert bench_main(["analysis"]) == 0
    assert list(exports.iterdir()) == []
