"""Static placement cost model, calibrated against the transport constants.

Two pricing surfaces, both pure arithmetic over a :class:`CommGraph`
and one :class:`~repro.transports.costmodels.CostStructure` (the
``costs=`` argument, default :data:`DEFAULT_COSTS`; no simulation):

* :func:`partition_cost` extends
  :func:`repro.obs.graph.evaluate_partition` with a *wire-time-weighted*
  cut cost — every cut edge priced at its method's latency, send/recv
  overheads, bandwidth and per-byte CPU — times a compute-imbalance
  penalty.  This is the objective the partitioners compete on.

* :func:`predict_placement` prices a :class:`Placement` candidate as
  the serving bottleneck it would create: per-rank demand shares come
  from the graph (final-hop messages into each remote-serving rank),
  and each rank's cost per own request is the fleet service work plus
  the *poll tax* of every method that rank still polls — the paper's
  §4.1 mechanism.  Against the simulated engine's bisected capacity
  the model over-predicts by +7.6 % (``direct``, 1385 vs 1288 RSR/s)
  to +24 % (``forward@0``, 1603 vs 1288; EXPERIMENTS.md's placement
  table).  Calibration notes:

  - a direct-routed rank pays the slow method's dispatch + receive CPU
    *inline* with serving (the poll that detects the message also
    processes it);
  - a forwarding rank does **not**: the §4.3 service loop drains the
    forwarded method's inbox event-driven, concurrent with serving, so
    its relay CPU binds only through the separate relay term;
  - members behind a forwarder stop polling the slow method entirely —
    dropping their per-op poll tax from ~126 µs to ~16 µs — which is
    the entire reason forwarding wins on untuned stacks.

The model deliberately ignores detection latency (it prices
throughput, not p99): for serving workloads the capacity SLO binds on
goodput long before the 50 ms latency bound.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..obs.graph import CommGraph, evaluate_partition
from ..transports.costmodels import (
    DEFAULT_COSTS,
    CostStructure,
    TransportCosts,
)
from .errors import PlacementError
from .plan import Placement

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..load.scenario import LoadScenario


#: Component-name prefix of the remote-serving ranks in load graphs.
REMOTE_COMPONENT_PREFIX = "srv/remote/"


def _costs_for(method: str, costs: CostStructure) -> TransportCosts:
    """Constants for ``method``; unknown methods (layered stacks the
    table does not name) price conservatively as TCP."""
    table = costs.transports
    return table.get(method) or table["tcp"]


# -- partition objective ------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class PartitionCost:
    """The partitioners' objective: wire-weighted cut x imbalance."""

    #: Estimated wire+CPU seconds of all cut traffic.
    wire_cut_s: float
    #: Cut bytes per method (from :func:`evaluate_partition`).
    cut_bytes_per_method: dict[str, int]
    #: Normalized traffic imbalance (max part / mean part, >= 1).
    imbalance: float
    #: The scalar being minimised: ``wire_cut_s * imbalance`` — a
    #: perfectly balanced partition pays its cut cost exactly once.
    score: float


def edge_wire_cost(method: str, messages: int, nbytes: int, *,
                   costs: CostStructure = DEFAULT_COSTS) -> float:
    """Wire-time-weighted cost of one edge's traffic, in seconds."""
    c = _costs_for(method, costs)
    return (messages * (c.latency + c.send_overhead + c.recv_overhead)
            + nbytes / c.bandwidth
            + nbytes * (c.per_byte_send + c.per_byte_recv))


def partition_cost(graph: CommGraph, assignment: _t.Mapping[int, str], *,
                   costs: CostStructure = DEFAULT_COSTS) -> PartitionCost:
    """Score one rank → partition assignment (lower is better)."""
    evaluated = evaluate_partition(graph, assignment)
    wire_cut_s = sum(
        edge_wire_cost(edge.method, edge.messages, edge.bytes, costs=costs)
        for edge in graph.edge_list()
        if assignment.get(edge.src, "?") != assignment.get(edge.dst, "?"))
    imbalance = evaluated.imbalance or 1.0
    return PartitionCost(
        wire_cut_s=wire_cut_s,
        cut_bytes_per_method=dict(evaluated.cross_bytes_per_method),
        imbalance=imbalance,
        score=wire_cut_s * imbalance,
    )


# -- placement capacity model -------------------------------------------------

@dataclasses.dataclass(frozen=True)
class ServingDemand:
    """Per-remote-rank demand recovered from a profiled comm graph."""

    #: Remote serving rank index -> fraction of remote demand.
    shares: tuple[tuple[int, float], ...]
    #: Mean payload bytes per remote request.
    mean_bytes: float
    #: Total remote requests observed in the profile.
    messages: int

    def share_map(self) -> dict[int, float]:
        return dict(self.shares)


def serving_demand(graph: CommGraph) -> ServingDemand:
    """Recover per-rank demand shares from any profile of the workload.

    A rank's own demand is its final-hop in-traffic: messages into it
    minus messages it relayed onward to other serving ranks — so the
    same numbers come out of a direct-routed or a forwarded profile.
    """
    servers: dict[int, int] = {}
    for rank, node in graph.nodes.items():
        if node.component.startswith(REMOTE_COMPONENT_PREFIX):
            servers[rank] = int(
                node.component[len(REMOTE_COMPONENT_PREFIX):])
    if not servers:
        raise PlacementError(
            "graph has no remote-serving ranks "
            f"(components {REMOTE_COMPONENT_PREFIX}*) to place against")
    own_msgs = {rank: graph.nodes[rank].messages_in for rank in servers}
    own_bytes = {rank: graph.nodes[rank].bytes_in for rank in servers}
    for (src, dst, _method), edge in graph.edges.items():
        if src in servers and dst in servers and src != dst:
            own_msgs[src] -= edge.messages
            own_bytes[src] -= edge.bytes
    total = sum(own_msgs.values())
    if total <= 0:
        raise PlacementError(
            "graph carries no remote serving traffic to model")
    return ServingDemand(
        shares=tuple(sorted(
            (servers[rank], own_msgs[rank] / total)
            for rank in servers)),
        mean_bytes=sum(own_bytes.values()) / total,
        messages=total,
    )


@dataclasses.dataclass(frozen=True)
class PlacementCost:
    """One candidate's static price: the bottleneck it would create."""

    placement: Placement
    #: Seconds of bottleneck CPU per offered remote request.
    bottleneck_s: float
    #: ``1 / bottleneck_s`` — the model's saturation rate, requests/s.
    static_capacity: float
    #: What binds: ``"serve@<index>"`` or ``"relay"``.
    binding: str
    #: Per-rank busy seconds per offered request, index-ordered.
    per_rank_busy: tuple[tuple[str, float], ...]


def _mean_service(scenario: "LoadScenario") -> tuple[float, float]:
    """Offered-rate-weighted (service_ops, service_time) per remote
    request."""
    remote = [fleet for fleet in scenario.fleets if fleet.route == "remote"]
    if not remote:
        raise PlacementError(
            f"scenario {scenario.name!r} has no remote-route fleets")
    weights = [fleet.open_rate or float(fleet.clients) for fleet in remote]
    total = sum(weights)
    ops = sum(w * fleet.service_ops
              for w, fleet in zip(weights, remote)) / total
    seconds = sum(w * fleet.service_time
                  for w, fleet in zip(weights, remote)) / total
    return ops, seconds


def poll_tax_per_op(methods: _t.Iterable[str],
                    skip: _t.Mapping[str, int], *,
                    costs: CostStructure = DEFAULT_COSTS) -> float:
    """CPU per Nexus op of polling ``methods`` at the given skips."""
    return costs.runtime.poll_loop_cost + sum(
        _costs_for(method, costs).poll_cost / max(1, skip.get(method, 1))
        for method in methods)


def predict_placement(graph: CommGraph, scenario: "LoadScenario",
                      placement: Placement, *,
                      costs: CostStructure = DEFAULT_COSTS,
                      demand: ServingDemand | None = None) -> PlacementCost:
    """Price one placement candidate against a profiled workload."""
    demand = demand or serving_demand(graph)
    shares = demand.share_map()
    forwarder = placement.forwarder
    if forwarder is not None and forwarder not in shares:
        raise PlacementError(
            f"placement forwarder {forwarder} is not a serving rank "
            f"in the profile (ranks {sorted(shares)})")
    ops, service_s = _mean_service(scenario)
    runtime = costs.runtime
    skip = scenario.skip_map()
    slow = _costs_for(placement.method, costs)
    fast = _costs_for(placement.fast_method, costs)
    mean_bytes = demand.mean_bytes

    recv_slow = (slow.recv_overhead + slow.per_byte_recv * mean_bytes)
    recv_fast = (fast.recv_overhead + fast.per_byte_recv * mean_bytes)

    busy: list[tuple[str, float]] = []
    for index in sorted(shares):
        share = shares[index]
        if forwarder is None:
            polled = list(scenario.transports)
            inline = recv_slow  # poll detects *and* processes inline
        elif index == forwarder:
            polled = list(scenario.transports)
            inline = 0.0  # the service loop drains the slow inbox
        else:
            polled = [m for m in scenario.transports
                      if m != placement.method]
            inline = recv_fast
        per_request = (service_s
                       + ops * poll_tax_per_op(polled, skip, costs=costs)
                       + runtime.dispatch_cost + inline)
        busy.append((f"serve@{index}", share * per_request))
    if forwarder is not None:
        relayed = 1.0 - shares[forwarder]
        relay = (runtime.dispatch_cost + recv_slow
                 + relayed * (runtime.forward_overhead + fast.send_overhead
                              + fast.per_byte_send * mean_bytes))
        busy.append(("relay", relay))
    binding, bottleneck = max(busy, key=lambda item: (item[1], item[0]))
    return PlacementCost(
        placement=placement,
        bottleneck_s=bottleneck,
        static_capacity=1.0 / bottleneck,
        binding=binding,
        per_rank_busy=tuple(busy),
    )


__all__ = [
    "REMOTE_COMPONENT_PREFIX",
    "PartitionCost",
    "PlacementCost",
    "ServingDemand",
    "edge_wire_cost",
    "partition_cost",
    "poll_tax_per_op",
    "predict_placement",
    "serving_demand",
]
