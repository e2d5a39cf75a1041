"""Critical-path extraction: exact attribution, ordering, export."""

import json

import pytest

from repro.obs.critpath import (
    ParentCycleError,
    critpath_document,
    extract_critical_paths,
    phase_attribution,
    write_critpaths,
)
from repro.util.document import DocumentError, check, dumps

from .test_graph import run_forwarded
from .test_spans import run_pingpong


@pytest.fixture(scope="module")
def paths():
    return extract_critical_paths(run_pingpong().nexus.obs)


class TestExtraction:
    def test_one_path_per_traced_rsr(self, paths):
        assert [p.rsr for p in sorted(paths, key=lambda p: p.rsr)] == [1, 2]

    def test_paths_sort_slowest_first(self, paths):
        latencies = [p.latency_s for p in paths]
        assert latencies == sorted(latencies, reverse=True)
        # tcp cross-partition RSR beats the local mpl one to the top.
        assert paths[0].latency_s > paths[1].latency_s

    def test_step_shares_sum_exactly_to_latency(self, paths):
        for path in paths:
            assert sum(s.share_s for s in path.steps) \
                == pytest.approx(path.latency_s, abs=1e-12)

    def test_phase_totals_match_steps(self, paths):
        for path in paths:
            assert sum(path.phase_s.values()) \
                == pytest.approx(path.latency_s, abs=1e-12)

    def test_single_hop_paths_have_one_wire_step(self, paths):
        assert all(p.wire_hops == 1 for p in paths)
        assert all(not p.dropped for p in paths)

    def test_handler_name_is_carried(self, paths):
        assert all(p.handler == "h" for p in paths)

    def test_top_k_keeps_the_slowest(self, paths):
        top = extract_critical_paths(run_pingpong().nexus.obs, top_k=1)
        assert len(top) == 1
        assert top[0].rsr == paths[0].rsr

    def test_ranks_are_dense_first_appearance(self, paths):
        ranks = {s.rank for p in paths for s in p.steps}
        assert ranks <= set(range(len(ranks) + 1))

    def test_forwarded_path_charges_the_forward_hop(self):
        bed = run_forwarded()
        paths = extract_critical_paths(bed.nexus.obs)
        top = paths[0]
        assert top.wire_hops == 2          # tcp into fwd, mpl out of it
        assert "forward" in top.phase_s
        lanes = [s.lane for s in top.steps if s.phase == "wire"]
        assert lanes == ["tcp", "mpl"]

    def test_a_parent_cycle_is_refused_not_walked_forever(self):
        # The forwarded RSR's dispatch span lies on its critical path;
        # made its own parent, the leaf-to-root walk meets a cycle.
        obs = run_forwarded().nexus.obs
        span = next(s for s in obs.sink.closed if s.phase == "dispatch")
        span.parent = span.id
        with pytest.raises(ParentCycleError, match=(
                f"^RSR {span.rsr}: span parent links form a cycle "
                f"through span {span.id}$")):
            extract_critical_paths(obs)


class TestAttribution:
    def test_sums_across_paths_sorted_by_weight(self, paths):
        totals = phase_attribution(paths)
        assert sum(totals.values()) \
            == pytest.approx(sum(p.latency_s for p in paths), abs=1e-12)
        weights = list(totals.values())
        assert weights == sorted(weights, reverse=True)

    def test_wire_dominates_the_cross_partition_pingpong(self, paths):
        # The tcp link's 2 ms latency dwarfs every software phase.
        totals = phase_attribution(paths)
        assert max(totals, key=totals.get) in ("wire", "enqueue")


class TestExport:
    def test_identical_runs_export_identical_bytes(self):
        one = extract_critical_paths(run_pingpong().nexus.obs)
        two = extract_critical_paths(run_pingpong().nexus.obs)
        assert dumps(critpath_document(one)) \
            == dumps(critpath_document(two))

    def test_document_passes_the_validator(self, paths):
        _schema, summary = check(critpath_document(paths))
        assert summary["paths"] == 2
        assert summary["steps"] == sum(len(p.steps) for p in paths)

    def test_write_round_trips_through_the_validator(self, paths,
                                                     tmp_path):
        path = tmp_path / "critpath.json"
        write_critpaths(str(path), paths, meta={"scenario": "pingpong"})
        document = json.loads(path.read_text())
        check(document)
        assert document["meta"] == {"scenario": "pingpong"}

    def test_validator_rejects_share_latency_mismatch(self, paths):
        document = critpath_document(paths)
        document["paths"][0]["latency_s"] += 1.0
        with pytest.raises(DocumentError):
            check(document)

    def test_validator_rejects_pathless_document(self):
        document = critpath_document([])
        document["paths"] = [{"steps": [], "latency_s": 0.0}]
        with pytest.raises(DocumentError):
            check(document)
