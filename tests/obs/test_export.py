"""Tests for the trace exporters and the trace-document validator."""

import json

import pytest

from repro.obs import export
from repro.util.document import DocumentError, dumps

from .test_spans import run_pingpong


@pytest.fixture(scope="module")
def traced():
    """One traced ping-pong run, shared by the read-only export tests."""
    bed = run_pingpong()
    return bed.nexus.obs, bed.nexus


def one_run_trace(obs, nexus=None):
    return export.merged_chrome_trace([(obs, nexus)])


class TestChromeTrace:
    def test_document_passes_the_validator(self, traced):
        obs, nexus = traced
        export.DOCUMENT.validate(one_run_trace(obs, nexus))

    def test_round_trips_through_json(self, traced):
        obs, nexus = traced
        document = one_run_trace(obs, nexus)
        assert json.loads(dumps(document)) == document

    def test_metadata_names_every_context_and_lane(self, traced):
        obs, nexus = traced
        events = one_run_trace(obs, nexus)["traceEvents"]
        pids = {e["pid"] for e in events if e["ph"] == "X"}
        named = {e["pid"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert pids <= named
        assert sorted(pids) == list(range(1, len(pids) + 1))  # dense

    def test_events_carry_causal_ids(self, traced):
        obs, nexus = traced
        events = [e for e in one_run_trace(obs, nexus)["traceEvents"]
                  if e["ph"] == "X"]
        assert len(events) == len(obs.spans)
        for event in events:
            assert event["args"]["rsr"] >= 1
            assert event["dur"] >= 0

    def test_context_names_from_nexus(self, traced):
        obs, nexus = traced
        events = one_run_trace(obs, nexus)["traceEvents"]
        names = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert {"run0:a", "run0:b", "run0:c"} <= names

    def test_write_and_validate_file(self, traced, tmp_path):
        obs, nexus = traced
        path = tmp_path / "trace.json"
        export.write_merged_chrome_trace(str(path), [(obs, nexus)])
        export.DOCUMENT.validate(json.loads(path.read_text()))

    def test_merged_trace_separates_runs(self, traced):
        obs, nexus = traced
        document = export.merged_chrome_trace([(obs, nexus), (obs, nexus)])
        export.DOCUMENT.validate(document)
        pids = {e["pid"] for e in document["traceEvents"] if e["ph"] == "X"}
        assert any(pid >= 1000 for pid in pids)
        assert set(document["metrics"]) == {"run0", "run1"}


class TestValidator:
    def _valid(self, traced):
        obs, nexus = traced
        return one_run_trace(obs, nexus)

    def test_rejects_non_dict(self):
        with pytest.raises(DocumentError):
            export.DOCUMENT.validate([])

    def test_rejects_empty_events(self, traced):
        document = dict(self._valid(traced), traceEvents=[])
        with pytest.raises(DocumentError):
            export.DOCUMENT.validate(document)

    def test_rejects_missing_phases(self, traced):
        document = dict(self._valid(traced))
        document["traceEvents"] = [
            e for e in document["traceEvents"]
            if e["ph"] != "X" or e["name"] != "poll_detect"]
        with pytest.raises(DocumentError, match="poll_detect"):
            export.DOCUMENT.validate(document)

    def test_rejects_missing_latency_metrics(self, traced):
        document = dict(self._valid(traced), metrics={})
        with pytest.raises(DocumentError, match="rsr_latency_us"):
            export.DOCUMENT.validate(document)


class TestEmptyMergedTrace:
    """Regression: zero collected runs must still write a valid trace
    (e.g. ``--trace`` around an artefact that builds no Nexus)."""

    def test_write_zero_runs_produces_valid_document(self, tmp_path):
        path = tmp_path / "empty.json"
        export.write_merged_chrome_trace(str(path), [])
        document = json.loads(path.read_text())
        summary = export.DOCUMENT.validate(document)
        assert summary["span_events"] == 0
        assert document["traceEvents"] == []
        assert document["otherData"]["runs"] == 0

    def test_validate_cli_accepts_empty_trace(self, tmp_path):
        from repro.obs.validate import main as validate_main

        path = tmp_path / "empty.json"
        export.write_merged_chrome_trace(str(path), [])
        assert validate_main([str(path)]) == 0

    def test_undeclared_emptiness_still_fails(self):
        # An empty event list is only valid when the document itself
        # declares zero spans — arbitrary hollow documents stay invalid.
        with pytest.raises(DocumentError):
            export.DOCUMENT.validate({"traceEvents": [], "metrics": {}})
        with pytest.raises(DocumentError):
            export.DOCUMENT.validate(
                {"traceEvents": [], "metrics": {},
                 "otherData": {"spans": 3}})

    def test_empty_single_run_export_is_valid(self):
        from repro.obs.spans import Observability
        from repro.simnet import Simulator

        obs = Observability(Simulator(), enabled=True)
        export.DOCUMENT.validate(one_run_trace(obs))
