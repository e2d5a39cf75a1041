"""Deterministic merge: completion order in, task-key order out."""

import os

import pytest

from repro.fleet import (
    FleetTask,
    FleetTaskError,
    ScenarioGrid,
    TaskOutcome,
    document_digest,
    key_slug,
    merge_load_results,
    require_ok,
    run_plan,
    run_serial,
)
from repro.load import FixedSize, FleetSpec, LoadScenario, OpenLoop
from repro.obs.stream import merge_spool_manifests, write_merged_manifest
from repro.util.document import DocumentError, check, dumps


def _scenario():
    return LoadScenario(
        name="tiny",
        fleets=(FleetSpec("rpc", clients=2, arrival=OpenLoop(rate=40.0),
                          sizes=FixedSize(512), route="remote",
                          service_ops=5, service_time=100e-6),),
        duration=0.05, seed=7)


def _run_grid(stream_root=None):
    grid = ScenarioGrid(name="g", base=_scenario(), factors=(0.5, 1.0, 1.5),
                        stream_root=stream_root)
    return grid, run_serial(grid.tasks())


class TestMergeLoadResults:
    def test_merge_ignores_completion_order(self):
        _grid, outcomes = _run_grid()
        shuffled = dict(reversed(list(outcomes.items())))
        assert list(shuffled) != list(outcomes)
        merged_a = merge_load_results(outcomes, plan="g")
        merged_b = merge_load_results(shuffled, plan="g")
        assert dumps(merged_a) == dumps(merged_b)
        assert list(merged_a["tasks"]) == sorted(merged_a["tasks"])

    def test_jobs_never_recorded(self):
        grid, _outcomes = _run_grid()
        serial, wide = (
            merge_load_results(run_plan(grid, jobs=jobs).outcomes, plan="g")
            for jobs in (1, 2))
        assert document_digest(serial) == document_digest(wide)
        assert "jobs" not in dumps(serial)

    def test_totals_sum_tasks(self):
        _grid, outcomes = _run_grid()
        merged = merge_load_results(outcomes, plan="g")
        tasks = merged["tasks"]
        assert merged["totals"]["tasks"] == len(tasks) == 3
        assert merged["totals"]["delivered"] == sum(
            body["delivered"] for body in tasks.values())

    def test_summary_drops_spool_paths(self, tmp_path):
        grid, outcomes = _run_grid(stream_root=str(tmp_path))
        merged = merge_load_results(outcomes, plan="g")
        text = dumps(merged)
        assert str(tmp_path) not in text
        for body in merged["tasks"].values():
            assert "directory" not in body["stream"]
            assert body["stream"]["records"] > 0

    def test_merged_document_passes_its_validator(self):
        _grid, outcomes = _run_grid()
        kind, summary = check(merge_load_results(outcomes, plan="g"))
        assert kind.id == "repro.fleet.load_summary"
        assert summary["plan"] == "g" and summary["tasks"] == 3

    @pytest.mark.parametrize("reason", ["totals.delivered", "totals.tasks",
                                        "spool directory"])
    def test_validator_rejects(self, tmp_path, reason):
        _grid, outcomes = _run_grid(stream_root=str(tmp_path))
        merged = merge_load_results(outcomes, plan="g")
        if reason == "totals.delivered":
            merged["totals"]["delivered"] += 1
        elif reason == "totals.tasks":
            del merged["tasks"]["g/x0.5"]
        else:
            merged["tasks"]["g/x0.5"]["stream"]["directory"] = "/tmp/x"
        with pytest.raises(DocumentError, match=reason):
            check(merged)

    def test_failed_task_never_merges_silently(self):
        _grid, outcomes = _run_grid()
        error = FleetTaskError("g/x0.5", "RuntimeError", "boom", "tb...")
        broken = dict(outcomes)
        broken["g/x0.5"] = TaskOutcome(key="g/x0.5", error=error)
        with pytest.raises(FleetTaskError, match="g/x0.5"):
            merge_load_results(broken, plan="g")

    def test_require_ok_raises_first_error_in_key_order(self):
        outcomes = {
            "b": TaskOutcome(key="b", error=FleetTaskError(
                "b", "ValueError", "second", "tb")),
            "a": TaskOutcome(key="a", error=FleetTaskError(
                "a", "ValueError", "first", "tb")),
        }
        with pytest.raises(FleetTaskError, match="'a'"):
            require_ok(outcomes)


class TestMergedManifests:
    def _spooled(self, tmp_path):
        grid, outcomes = _run_grid(stream_root=str(tmp_path))
        require_ok(outcomes)
        spools = {task.key: key_slug(task.key) for task in grid.tasks()}
        return spools

    def test_merge_is_order_independent_and_validates(self, tmp_path):
        spools = self._spooled(tmp_path)
        forward = merge_spool_manifests(str(tmp_path), spools)
        backward = merge_spool_manifests(
            str(tmp_path), dict(reversed(list(spools.items()))))
        assert dumps(forward) == dumps(backward)
        # The merged manifest re-validates, spool files checked on disk.
        _schema, summary = check(
            forward, str(tmp_path / "manifest.merged.json"))
        assert summary["verified"]

    def test_rollup_totals_sum_task_totals(self, tmp_path):
        spools = self._spooled(tmp_path)
        merged = merge_spool_manifests(str(tmp_path), spools)
        assert merged["task_count"] == 3
        for field, total in merged["totals"].items():
            assert total == sum(task["totals"][field]
                                for task in merged["tasks"].values())

    def test_written_manifest_has_no_absolute_paths(self, tmp_path):
        spools = self._spooled(tmp_path)
        merged = merge_spool_manifests(str(tmp_path), spools)
        path = write_merged_manifest(str(tmp_path), merged)
        with open(path) as handle:
            text = handle.read()
        assert str(tmp_path) not in text

    def test_absolute_spool_dirs_rejected(self, tmp_path):
        spools = self._spooled(tmp_path)
        bad = dict(spools)
        key = next(iter(bad))
        bad[key] = os.path.join(str(tmp_path), bad[key])
        with pytest.raises(ValueError):
            merge_spool_manifests(str(tmp_path), bad)
