"""Tests for BenchRecord documents and the baseline regression gate."""

import copy
import json

import pytest

from repro.baselines import run_mixed_workload
from repro.bench import record as record_mod
from repro.bench.__main__ import main as bench_main
from repro.bench.baselines import Baselines
from repro.bench.record import (
    BenchRecord,
    compare_records,
    load_record,
)
from repro.util.document import DocumentError, check, dumps


def small_record(label="test"):
    """A record populated from a tiny (deterministic) real workload."""
    record = BenchRecord(label)
    results = {"nexus skip_poll=1": run_mixed_workload("nexus", rounds=2)}
    record.extend("baselines", Baselines(results).metrics())
    record.add("baselines", "wall_s", 0.123, unit="s", kind="wall")
    record.add("baselines", "sim_events", 1000.0, unit="events",
               kind="count")
    return record


class TestBenchRecord:
    def test_document_validates(self):
        _schema, summary = check(small_record().to_document())
        assert summary == {"artefacts": 1, "metrics": 2}

    def test_environment_fingerprint_fields(self):
        env = small_record().to_document()["environment"]
        assert set(env) == {"python", "implementation", "platform",
                            "machine", "git_sha"}

    def test_metric_names_are_slugged(self):
        metrics = small_record().to_document()["artefacts"]["baselines"][
            "metrics"]
        assert "nexus_skip_poll=1.ms_per_round" in metrics

    def test_duplicate_metric_rejected(self):
        record = small_record()
        with pytest.raises(ValueError, match="twice"):
            record.add("baselines", "sim_events", 5.0)

    def test_non_finite_value_rejected(self):
        record = BenchRecord()
        with pytest.raises(ValueError, match="finite"):
            record.add("a", "m", float("nan"))

    def test_wall_metrics_excluded_by_default(self):
        document = small_record().to_document()
        kinds = {metric["kind"]
                 for body in document["artefacts"].values()
                 for metric in body["metrics"].values()}
        assert "wall" not in kinds
        with_wall = small_record().to_document(include_wall=True)
        kinds = {metric["kind"]
                 for body in with_wall["artefacts"].values()
                 for metric in body["metrics"].values()}
        assert "wall" in kinds

    def test_byte_deterministic_across_identical_runs(self):
        assert dumps(small_record().to_document(), indent=1) \
            == dumps(small_record().to_document(), indent=1)

    def test_write_load_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_test.json"
        record = small_record()
        record.write(str(path))
        document = load_record(str(path))
        assert document == record.to_document()

    def test_load_rejects_invalid_document(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "something-else"}))
        with pytest.raises(DocumentError):
            load_record(str(path))

    def test_load_names_a_truncated_file(self, tmp_path):
        path = tmp_path / "BENCH_torn.json"
        small_record().write(str(path))
        path.write_text(path.read_text()[:200])
        with pytest.raises(DocumentError) as caught:
            load_record(str(path))
        assert "BENCH_torn.json" in str(caught.value)
        assert "line" in str(caught.value)

    @pytest.mark.parametrize("tail", [b"\xc2", b"\xff\"}"])
    def test_load_names_a_file_that_is_not_utf8(self, tmp_path, tail):
        # Cut inside a multi-byte character, or one corrupt byte.
        path = tmp_path / "BENCH_bytes.json"
        path.write_bytes(b'{"schema": "repro.bench.record", "x": "' + tail)
        with pytest.raises(DocumentError) as caught:
            load_record(str(path))
        assert "BENCH_bytes.json" in str(caught.value)
        assert "UTF-8" in str(caught.value)


class TestValidation:
    def test_rejects_bad_kind_and_direction(self):
        document = small_record().to_document()
        bad = copy.deepcopy(document)
        metric = next(iter(
            bad["artefacts"]["baselines"]["metrics"].values()))
        metric["kind"] = "vibes"
        with pytest.raises(DocumentError, match="kind"):
            check(bad)
        bad = copy.deepcopy(document)
        metric = next(iter(
            bad["artefacts"]["baselines"]["metrics"].values()))
        metric["direction"] = "sideways"
        with pytest.raises(DocumentError, match="direction"):
            check(bad)

    def test_rejects_missing_environment_field(self):
        document = small_record().to_document()
        del document["environment"]["git_sha"]
        with pytest.raises(DocumentError, match="git_sha"):
            check(document)


class TestCompareRecords:
    def test_identical_records_pass(self):
        document = small_record().to_document()
        comparison = compare_records(document, copy.deepcopy(document))
        assert comparison.ok
        assert "0 regression(s)" in comparison.render()

    def test_sim_regression_detected_and_named(self):
        baseline = small_record().to_document()
        current = copy.deepcopy(baseline)
        name = "nexus_skip_poll=1.ms_per_round"
        current["artefacts"]["baselines"]["metrics"][name]["value"] *= 1.5
        comparison = compare_records(baseline, current)
        assert not comparison.ok
        assert [d.label for d in comparison.regressions] == (
            [f"baselines.{name}"])
        assert f"baselines.{name}" in comparison.render()
        assert "regressed" in comparison.render()

    def test_improvement_is_not_a_regression(self):
        baseline = small_record().to_document()
        current = copy.deepcopy(baseline)
        name = "nexus_skip_poll=1.ms_per_round"
        current["artefacts"]["baselines"]["metrics"][name]["value"] *= 0.5
        comparison = compare_records(baseline, current)
        assert comparison.ok
        assert any(d.status == "improved" for d in comparison.diffs)

    def test_within_tolerance_passes(self):
        baseline = small_record().to_document()
        current = copy.deepcopy(baseline)
        name = "nexus_skip_poll=1.ms_per_round"
        current["artefacts"]["baselines"]["metrics"][name]["value"] *= 1.005
        assert compare_records(baseline, current).ok
        assert not compare_records(baseline, current,
                                   sim_tolerance=0.001).ok

    def test_wall_metrics_are_advisory(self):
        baseline = small_record().to_document(include_wall=True)
        current = copy.deepcopy(baseline)
        current["artefacts"]["baselines"]["metrics"]["wall_s"]["value"] = 99.0
        comparison = compare_records(baseline, current)
        assert comparison.ok
        assert any(d.status == "wall (advisory)" for d in comparison.diffs)

    def test_missing_wall_metric_never_gates(self):
        baseline = small_record().to_document(include_wall=True)
        current = small_record().to_document()  # no --record-wall
        comparison = compare_records(baseline, current)
        assert all(d.name != "wall_s" for d in comparison.diffs)
        assert comparison.ok

    def test_count_drift_gates_loosely(self):
        baseline = small_record().to_document()
        current = copy.deepcopy(baseline)
        metrics = current["artefacts"]["baselines"]["metrics"]
        metrics["sim_events"]["value"] *= 1.05    # within 10%
        assert compare_records(baseline, current).ok
        metrics["sim_events"]["value"] = 2000.0   # way outside
        comparison = compare_records(baseline, current)
        assert not comparison.ok
        assert comparison.regressions[0].status == "changed"

    def test_missing_metric_is_a_regression(self):
        baseline = small_record().to_document()
        current = copy.deepcopy(baseline)
        del current["artefacts"]["baselines"]["metrics"]["sim_events"]
        comparison = compare_records(baseline, current)
        assert not comparison.ok
        assert comparison.regressions[0].status == "missing"

    def test_unrun_artefact_skipped_with_warning(self):
        baseline = small_record().to_document()
        current = BenchRecord("test")
        current.add("figure4", "some.metric_us", 1.0, unit="us")
        comparison = compare_records(baseline, current.to_document())
        assert comparison.ok
        assert any("skipped" in w for w in comparison.warnings)

    def test_untraced_run_against_traced_baseline_passes(self):
        # trace.* describe the traced run: a record made without
        # --trace (or at --jobs 2) is not missing them.
        traced = small_record()
        traced.add("baselines", "trace.spans", 500.0, unit="spans",
                   kind="count")
        comparison = compare_records(traced.to_document(),
                                     small_record().to_document())
        assert comparison.ok
        assert all(not d.name.startswith("trace.") for d in comparison.diffs)

    def test_missing_trace_metric_gates_in_a_traced_run(self):
        baseline = small_record()
        current = small_record()
        for record in (baseline, current):
            record.add("baselines", "trace.runtimes", 4.0,
                       unit="runtimes", kind="count")
        baseline.add("baselines", "trace.spans", 500.0, unit="spans",
                     kind="count")
        comparison = compare_records(baseline.to_document(),
                                     current.to_document())
        assert [(d.label, d.status) for d in comparison.regressions] == [
            ("baselines.trace.spans", "missing")]


class TestBenchCli:
    """End-to-end: record, re-record, perturb, gate."""

    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("record") / "BENCH.json"
        assert bench_main(
            ["baselines", "--record", str(path)]) == 0
        return path

    def test_record_file_validates(self, recorded):
        document = load_record(str(recorded))
        assert document["label"] == "bench"
        assert "baselines" in document["artefacts"]

    def test_record_is_byte_deterministic(self, recorded, tmp_path):
        again = tmp_path / "BENCH_again.json"
        assert bench_main(
            ["baselines", "--record", str(again)]) == 0
        assert again.read_bytes() == recorded.read_bytes()

    def test_check_passes_against_own_record(self, recorded):
        assert bench_main(["baselines", "--baseline",
                           str(recorded), "--check"]) == 0

    def test_check_fails_against_perturbed_copy(self, recorded, tmp_path,
                                                capsys):
        document = json.loads(recorded.read_text())
        name = "nexus_skip_poll=1.ms_per_round"
        document["artefacts"]["baselines"]["metrics"][name]["value"] *= 0.5
        perturbed = tmp_path / "perturbed.json"
        perturbed.write_text(json.dumps(document))
        assert bench_main(["baselines", "--baseline",
                           str(perturbed), "--check"]) == 1
        out = capsys.readouterr().out
        assert f"baselines.{name}" in out
        assert "regressed" in out

    def test_check_refuses_older_schema_baseline(self, recorded, tmp_path,
                                                 capsys):
        # A version-1 record (it carried environment.mode): refused up
        # front, naming both versions.
        document = json.loads(recorded.read_text())
        document["schema_version"] = 1
        document["environment"]["mode"] = "full"
        older = tmp_path / "BENCH_v1.json"
        older.write_text(json.dumps(document))
        assert bench_main(["baselines", "--baseline", str(older),
                           "--check"]) == 2
        captured = capsys.readouterr()
        assert "=== baselines" not in captured.out
        for needle in (str(older), "schema_version is 1",
                       f"reads {record_mod.SCHEMA_VERSION}"):
            assert needle in captured.err

    def test_check_requires_baseline(self, capsys):
        with pytest.raises(SystemExit):
            bench_main(["baselines", "--check"])

    def test_record_wall_included_on_request(self, tmp_path):
        path = tmp_path / "BENCH_wall.json"
        assert bench_main(["baselines", "--record", str(path),
                           "--record-wall"]) == 0
        document = load_record(str(path))
        assert "wall_s" in document["artefacts"]["baselines"]["metrics"]


def test_git_sha_resilient(monkeypatch):
    """Outside a git checkout the fingerprint degrades to 'unknown'."""
    def boom(*args, **kwargs):
        raise OSError("no git")

    monkeypatch.setattr(record_mod.subprocess, "run", boom)
    assert record_mod.git_sha() == "unknown"
