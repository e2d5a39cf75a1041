"""The static cost model: wire pricing, demand recovery, placement
capacity predictions."""

import pytest

from repro.load import FixedSize, FleetSpec, LoadScenario, OpenLoop
from repro.place import (
    PlacementError,
    direct_placement,
    edge_wire_cost,
    forwarding_placement,
    partition_cost,
    poll_tax_per_op,
    predict_placement,
    serving_demand,
)
from repro.transports.costmodels import DEFAULT_COSTS

from .graphs import make_graph, serving_graph


def scenario(**overrides):
    spec = dict(
        name="serving",
        fleets=(FleetSpec("rpc", clients=8, arrival=OpenLoop(rate=30.0),
                          sizes=FixedSize(1024), route="remote",
                          service_ops=10, service_time=200e-6),),
        duration=0.2, remote_servers=3)
    spec.update(overrides)
    return LoadScenario(**spec)


class TestWirePricing:
    def test_cost_scales_with_bytes_and_messages(self):
        one = edge_wire_cost("tcp", 1, 1024)
        assert one > 0
        assert edge_wire_cost("tcp", 1, 4096) > one
        assert edge_wire_cost("tcp", 4, 1024) > one

    def test_tcp_costs_more_than_mpl(self):
        assert edge_wire_cost("tcp", 10, 10_240) \
            > edge_wire_cost("mpl", 10, 10_240)

    def test_unknown_method_prices_as_tcp(self):
        assert edge_wire_cost("tcp-over-carrier-pigeon", 3, 512) \
            == edge_wire_cost("tcp", 3, 512)

    def test_doubling_every_cost_doubles_the_static_prices(self):
        # Every term of both prices is a cost field, so scaled(2) doubles
        # them exactly.  Not so predict_placement: the scenario's service
        # time lies outside the cost structure.
        doubled = DEFAULT_COSTS.scaled(2)
        for method in ("local", "mpl", "tcp", "unknown"):
            assert edge_wire_cost(method, 7, 3000, costs=doubled) \
                == 2 * edge_wire_cost(method, 7, 3000)
            assert poll_tax_per_op([method], {method: 3}, costs=doubled) \
                == 2 * poll_tax_per_op([method], {method: 3})


class TestPartitionCost:
    def test_uncut_assignment_costs_nothing(self):
        graph = serving_graph()
        cost = partition_cost(graph, {rank: "P0" for rank in graph.nodes})
        assert cost.wire_cut_s == 0.0
        assert cost.score == 0.0

    def test_cut_traffic_is_priced_per_method(self):
        graph = make_graph([(0, 1, "tcp", 4, 4096), (1, 2, "mpl", 2, 64)])
        cost = partition_cost(graph, {0: "A", 1: "B", 2: "B"})
        assert cost.cut_bytes_per_method == {"tcp": 4096}
        assert cost.wire_cut_s \
            == pytest.approx(edge_wire_cost("tcp", 4, 4096))

    def test_imbalance_multiplies_the_score(self):
        graph = serving_graph(shares=(8, 1, 1))
        balanced = {rank: ("P0" if rank < 2 else "P1")
                    for rank in graph.nodes}
        cost = partition_cost(graph, balanced)
        assert cost.imbalance >= 1.0
        assert cost.score == pytest.approx(
            cost.wire_cut_s * cost.imbalance)


class TestServingDemand:
    def test_shares_recovered_from_direct_profile(self):
        demand = serving_demand(serving_graph(shares=(6, 3, 1)))
        assert demand.share_map() == {0: 0.6, 1: 0.3, 2: 0.1}
        assert demand.messages == 10
        assert demand.mean_bytes == 1024.0

    def test_forwarded_profile_recovers_the_same_shares(self):
        # All traffic lands on the forwarder (server 0) first; the
        # relayed hops to servers 1 and 2 must be subtracted back out.
        components = {0: "cli/0", 1: "srv/remote/0", 2: "srv/remote/1",
                      3: "srv/remote/2"}
        graph = make_graph(
            [(0, 1, "tcp", 10, 10 * 1024),
             (1, 2, "mpl", 3, 3 * 1024),
             (1, 3, "mpl", 1, 1 * 1024)], components)
        demand = serving_demand(graph)
        assert demand.share_map() == {0: 0.6, 1: 0.3, 2: 0.1}

    def test_no_serving_ranks_is_a_typed_error(self):
        with pytest.raises(PlacementError, match="no remote-serving"):
            serving_demand(make_graph([(0, 1, "tcp", 1, 100)]))

    def test_no_traffic_is_a_typed_error(self):
        graph = make_graph([(0, 1, "tcp", 0, 0)],
                           {1: "srv/remote/0"})
        with pytest.raises(PlacementError, match="no remote serving"):
            serving_demand(graph)


class TestPollTax:
    def test_skip_divides_the_per_method_cost(self):
        full = poll_tax_per_op(["tcp"], {})
        skipped = poll_tax_per_op(["tcp"], {"tcp": 10})
        base = poll_tax_per_op([], {})
        assert skipped - base == pytest.approx((full - base) / 10)

    def test_fewer_methods_cost_less(self):
        assert poll_tax_per_op(["local", "mpl"], {}) \
            < poll_tax_per_op(["local", "mpl", "tcp"], {})


class TestPredictPlacement:
    def test_forwarding_on_the_light_rank_wins_untuned(self):
        graph = serving_graph(shares=(6, 3, 1))
        base = scenario()
        direct = predict_placement(graph, base, direct_placement())
        best_fwd = predict_placement(graph, base,
                                     forwarding_placement(forwarder=2))
        assert best_fwd.static_capacity > direct.static_capacity
        # With only a 10% own share, the forwarder's relay CPU binds.
        assert best_fwd.binding == "relay"

    def test_direct_binds_on_the_heaviest_rank(self):
        graph = serving_graph(shares=(6, 3, 1))
        cost = predict_placement(graph, scenario(), direct_placement())
        assert cost.binding == "serve@0"
        assert cost.static_capacity == pytest.approx(1 / cost.bottleneck_s)

    def test_relay_term_appears_only_when_forwarding(self):
        graph = serving_graph()
        base = scenario()
        direct = predict_placement(graph, base, direct_placement())
        fwd = predict_placement(graph, base, forwarding_placement())
        assert dict(direct.per_rank_busy).keys() \
            == {"serve@0", "serve@1", "serve@2"}
        assert "relay" in dict(fwd.per_rank_busy)

    def test_unknown_forwarder_rank_is_a_typed_error(self):
        graph = serving_graph()
        with pytest.raises(PlacementError, match="not a serving rank"):
            predict_placement(graph, scenario(),
                              forwarding_placement(forwarder=9))

    def test_no_remote_fleets_is_a_typed_error(self):
        local_only = scenario(fleets=(FleetSpec(
            "users", clients=2, arrival=OpenLoop(rate=10.0),
            sizes=FixedSize(256), route="local"),))
        with pytest.raises(PlacementError, match="no remote-route"):
            predict_placement(serving_graph(), local_only,
                              direct_placement())

    def test_members_shed_the_slow_poll_tax(self):
        # The §4.3 mechanism: behind a forwarder the member ranks stop
        # polling tcp, so their busy time drops versus direct routing.
        graph = serving_graph(shares=(1, 1, 6))
        base = scenario()
        direct = dict(predict_placement(
            graph, base, direct_placement()).per_rank_busy)
        fwd = dict(predict_placement(
            graph, base, forwarding_placement(forwarder=0)).per_rank_busy)
        assert fwd["serve@2"] < direct["serve@2"]

