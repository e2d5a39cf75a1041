"""Placement search: enumeration, hill-climb, validated top-k."""

import types

import pytest

from repro.load import SLO, FixedSize, FleetSpec, LoadScenario, OpenLoop
from repro.place import (
    PlacementError,
    candidate_placements,
    direct_placement,
    forwarding_placement,
    neighborhood_search,
    ordering_agreement,
    search_placements,
)
from repro.place.plan import placement_document
from repro.place.search import ValidatedCandidate
from repro.util.document import dumps

from .graphs import serving_graph


def scenario():
    return LoadScenario(
        name="search-test",
        fleets=(FleetSpec("rpc", clients=4, arrival=OpenLoop(rate=30.0),
                          sizes=FixedSize(1024), route="remote",
                          service_ops=10, service_time=200e-6),),
        duration=0.1, remote_servers=3)


def slo():
    return SLO(name="capacity", p99_latency_us=50_000.0,
               min_goodput_fraction=0.9)


def fake_validated(label, static_capacity, capacity):
    return ValidatedCandidate(
        label=label, placement=direct_placement(),
        static=types.SimpleNamespace(static_capacity=static_capacity),
        result=types.SimpleNamespace(capacity=capacity))


class TestCandidateEnumeration:
    def test_every_route_enumerated_best_first(self):
        graph = serving_graph(shares=(6, 3, 1))
        candidates = candidate_placements(graph, scenario())
        assert [c.label for c in candidates][0] == "forward@2"
        assert {c.label for c in candidates} \
            == {"direct", "forward@0", "forward@1", "forward@2"}
        capacities = [c.static.static_capacity for c in candidates]
        assert capacities == sorted(capacities, reverse=True)

    def test_assignment_rides_along_for_provenance(self):
        graph = serving_graph()
        candidates = candidate_placements(
            graph, scenario(), assignment={0: "P0", 1: "P1"})
        for candidate in candidates:
            assert candidate.placement.assignment \
                == ((0, "P0"), (1, "P1"))

    def test_method_defaults_to_the_slow_transport(self):
        graph = serving_graph()
        candidates = candidate_placements(graph, scenario())
        assert all(c.placement.method == "tcp" for c in candidates)


class TestNeighborhoodSearch:
    def test_hill_climb_reaches_the_enumeration_optimum(self):
        graph = serving_graph(shares=(6, 3, 1))
        base = scenario()
        best_static = candidate_placements(graph, base)[0]
        for start in (direct_placement(),
                      forwarding_placement(forwarder=0)):
            reached = neighborhood_search(graph, base, start)
            assert reached.label == best_static.label

    def test_local_optimum_returns_itself(self):
        graph = serving_graph(shares=(6, 3, 1))
        base = scenario()
        optimum = candidate_placements(graph, base)[0].placement
        assert neighborhood_search(graph, base, optimum).placement \
            == optimum


class TestOrderingAgreement:
    def test_perfect_concordance(self):
        validated = [fake_validated("a", 300.0, 3000.0),
                     fake_validated("b", 200.0, 2000.0),
                     fake_validated("c", 100.0, 1000.0)]
        assert ordering_agreement(validated) == 1.0

    def test_inversions_lower_the_score(self):
        validated = [fake_validated("a", 300.0, 1000.0),
                     fake_validated("b", 200.0, 2000.0),
                     fake_validated("c", 100.0, 3000.0)]
        assert ordering_agreement(validated) == 0.0

    def test_simulated_ties_count_concordant(self):
        validated = [fake_validated("a", 300.0, 2000.0),
                     fake_validated("b", 200.0, 2000.0)]
        assert ordering_agreement(validated) == 1.0

    def test_static_ties_are_skipped(self):
        validated = [fake_validated("a", 200.0, 1000.0),
                     fake_validated("b", 200.0, 9000.0)]
        assert ordering_agreement(validated) == 1.0


class TestSearchPlacements:
    def test_serial_search_validates_and_picks_a_winner(self):
        graph = serving_graph(shares=(6, 3, 1))
        result = search_placements(
            graph, scenario(), slo(), top_k=2,
            low=200.0, high=2000.0, max_probes=2)
        assert len(result.candidates) == 4
        assert len(result.validated) == 2
        assert result.best.label in result.validated_by_label()
        assert result.best.capacity \
            == max(v.capacity for v in result.validated)
        assert "placement search" in result.summary()

    def test_search_is_deterministic(self):
        graph = serving_graph(shares=(6, 3, 1))
        kwargs = dict(top_k=2, low=200.0, high=2000.0, max_probes=2)
        one = search_placements(graph, scenario(), slo(), **kwargs)
        two = search_placements(graph, scenario(), slo(), **kwargs)
        assert one.summary() == two.summary()
        assert [v.result.probes for v in one.validated] \
            == [v.result.probes for v in two.validated]

    def test_pooled_search_is_byte_identical_to_serial(self):
        graph = serving_graph(shares=(6, 3, 1))
        kwargs = dict(top_k=2, low=200.0, high=2000.0, max_probes=2)

        def document(result):
            best = result.best
            return dumps({
                "summary": result.summary(),
                "validated": repr(result.validated),
                "plan": placement_document(best.placement, meta={
                    "label": best.label, "capacity_rps": best.capacity}),
            })

        serial = search_placements(graph, scenario(), slo(), jobs=1,
                                   **kwargs)
        pooled = search_placements(graph, scenario(), slo(), jobs=2,
                                   **kwargs)
        assert document(pooled) == document(serial)

    def test_nonpositive_top_k_is_a_typed_error(self):
        graph = serving_graph()
        with pytest.raises(PlacementError, match="top_k"):
            search_placements(graph, scenario(), slo(), top_k=0,
                              low=200.0, high=2000.0)
