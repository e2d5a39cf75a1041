"""The place artefact: §4.3 rediscovery shape, recording, exports."""

import json

import pytest

from repro.bench.place import (
    check_place_shape,
    serving_scenario,
)
from repro.bench.record import BenchRecord
from repro.obs.validate import validate_file


@pytest.fixture(scope="module")
def bench(bench_result, bench_exports):
    return bench_result("place"), bench_exports / "place"


class TestScenarioDefinition:
    def test_serving_workload_is_remote_and_untuned(self):
        scenario = serving_scenario()
        assert scenario.remote_servers == 3
        assert scenario.skip_poll == ()
        assert all(fleet.route == "remote" for fleet in scenario.fleets)


class TestShape:
    def test_rediscovery_criteria_hold(self, bench):
        check_place_shape(bench[0])

    def test_the_winner_forwards_on_the_lightest_rank(self, bench):
        result = bench[0]
        shares = result.demand.share_map()
        lightest = min(shares, key=lambda rank: (shares[rank], rank))
        assert result.search.best.placement.forwarder == lightest

    def test_render_covers_all_three_surfaces(self, bench):
        text = bench[0].render()
        assert "demand shares" in text
        assert "Partitioner bake-off" in text
        assert "Placement search" in text


class TestExports:
    def test_placement_document_is_written_and_valid(self, bench):
        result, export_dir = bench
        kind, summary = validate_file(str(export_dir / "placement.json"))
        assert kind.id == "repro.place.plan"
        assert summary["forwarder"] \
            == result.search.best.placement.forwarder

    def test_export_meta_carries_the_search_outcome(self, bench):
        result, export_dir = bench
        document = json.loads((export_dir / "placement.json").read_text())
        assert document["meta"]["label"] == result.search.best.label
        assert document["meta"]["capacity_rps"] \
            == result.search.best.capacity
        assert document["meta"]["agreement"] == result.agreement


class TestRecording:
    def test_record_covers_every_surface(self, bench):
        record = BenchRecord(label="x")
        record.extend("place", bench[0].metrics())
        metrics = record.to_document()["artefacts"]["place"]["metrics"]
        assert metrics["best.is_forwarding"]["value"] == 1
        assert metrics["agreement"]["value"] >= 0.75
        assert metrics["hill.matches_best"]["value"] == 1
        assert metrics["partition.kernighan-lin.score_ms"]["value"] \
            < metrics["partition.random_seed_0.score_ms"]["value"]
        assert metrics["partition.spectral.score_ms"]["value"] \
            < metrics["partition.random_seed_0.score_ms"]["value"]
        assert any(name.startswith("capacity.") for name in metrics)
        assert any(name.startswith("demand.share.") for name in metrics)
