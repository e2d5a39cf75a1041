"""Partitioners: quality on structured graphs, determinism, degenerates."""

import pytest

from repro.obs.graph import CommGraph
from repro.place import (
    PlacementError,
    cut_weight,
    kernighan_lin_refine,
    random_partition,
    spectral_partition,
)
from repro.place.partition import edge_weights, node_weights

from .graphs import barbell_graph, make_graph, serving_graph


class TestRandomBaseline:
    def test_balanced_and_seeded(self):
        graph = serving_graph()
        assignment = random_partition(graph, 2, seed=0)
        assert set(assignment) == set(graph.nodes)
        counts = [list(assignment.values()).count(label)
                  for label in ("P0", "P1")]
        assert abs(counts[0] - counts[1]) <= 1
        assert random_partition(graph, 2, seed=0) == assignment

    def test_different_seeds_can_differ(self):
        graph = barbell_graph(side=4)
        results = {tuple(sorted(random_partition(graph, 2, seed=s)
                                .items()))
                   for s in range(8)}
        assert len(results) > 1


class TestKernighanLin:
    def test_refinement_never_raises_the_cut(self):
        graph = barbell_graph()
        for seed in range(4):
            start = random_partition(graph, 2, seed=seed)
            refined = kernighan_lin_refine(graph, start)
            assert cut_weight(graph, refined) \
                <= cut_weight(graph, start)

    def test_finds_the_bridge_cut(self):
        graph = barbell_graph(side=3)
        start = {rank: ("P0" if rank % 2 == 0 else "P1")
                 for rank in graph.nodes}
        refined = kernighan_lin_refine(graph, start)
        # The optimal 3|3 split cuts only the light tcp bridge.
        assert cut_weight(graph, refined) == 10.0

    def test_preserves_part_sizes(self):
        graph = barbell_graph()
        start = random_partition(graph, 2, seed=1)
        refined = kernighan_lin_refine(graph, start)
        for label in ("P0", "P1"):
            assert list(refined.values()).count(label) \
                == list(start.values()).count(label)

    def test_missing_ranks_rejected(self):
        graph = serving_graph()
        with pytest.raises(PlacementError, match="missing ranks"):
            kernighan_lin_refine(graph, {0: "P0"})


class TestSpectral:
    def test_finds_the_bridge_cut(self):
        graph = barbell_graph(side=4)
        assignment = spectral_partition(graph, 2)
        assert cut_weight(graph, assignment) == 10.0

    def test_separates_disconnected_components(self):
        # Two islands that never talk: the zero-cut split.
        graph = make_graph([(0, 1, "mpl", 5, 500), (1, 2, "mpl", 5, 500),
                            (3, 4, "tcp", 5, 500)])
        assignment = spectral_partition(graph, 2)
        assert cut_weight(graph, assignment) == 0.0
        assert assignment[0] == assignment[1] == assignment[2]
        assert assignment[3] == assignment[4]

    def test_deterministic(self):
        graph = serving_graph()
        assert spectral_partition(graph, 3) == spectral_partition(graph, 3)

    def test_k_parts_all_nonempty(self):
        graph = barbell_graph(side=4)
        assignment = spectral_partition(graph, 4)
        assert set(assignment.values()) == {"P0", "P1", "P2", "P3"}


class TestDegenerateGraphs:
    def test_empty_graph_is_a_typed_error(self):
        for partition in (lambda g: random_partition(g, 1),
                          lambda g: spectral_partition(g, 1)):
            with pytest.raises(PlacementError, match="empty graph"):
                partition(CommGraph())

    def test_single_rank_graph_partitions_to_one_part(self):
        graph = make_graph([(0, 0, "local", 3, 300)])
        for partition in (lambda g: random_partition(g, 1),
                          lambda g: spectral_partition(g, 1)):
            assert partition(graph) == {0: "P0"}

    def test_more_parts_than_ranks_is_a_typed_error(self):
        graph = make_graph([(0, 1, "tcp", 1, 100)])
        for partition in (lambda g: random_partition(g, 3),
                          lambda g: spectral_partition(g, 3)):
            with pytest.raises(PlacementError, match="only 2 ranks"):
                partition(graph)

    def test_nonpositive_k_is_a_typed_error(self):
        graph = serving_graph()
        with pytest.raises(PlacementError, match="at least one"):
            spectral_partition(graph, 0)

    def test_zero_byte_edges_fall_back_to_message_weight(self):
        graph = make_graph([(0, 1, "mpl", 50, 0), (2, 3, "mpl", 50, 0),
                            (1, 2, "tcp", 1, 0)])
        weights = edge_weights(graph)
        assert weights[(0, 1)] == 50.0
        assignment = spectral_partition(graph, 2)
        assert cut_weight(graph, assignment) == 1.0

    def test_silent_rank_gets_unit_node_weight(self):
        graph = make_graph([(0, 1, "mpl", 0, 0)])
        assert node_weights(graph) == {0: 1.0, 1: 1.0}
