"""The placement artefact: rediscover §4.3 from the comm graph.

The paper's §4.3 forwarding configuration was hand-picked; this
artefact derives it.  One profiling run of the serving workload yields
the communication graph; :mod:`repro.place` then (1) runs the
partitioner bake-off over that graph — spectral and Kernighan–Lin
refinement must beat the seeded random baseline on the wire-weighted
cut — and (2) searches the placement space, ranking every candidate
with the static cost model and validating the top-k by simulated
capacity bisection, fanned out across processes when
``REPRO_PLACE_JOBS`` asks for it.

The rediscovery claims the shape check asserts:

* the searched optimum *is* a forwarding placement, co-located on one
  of the remote-serving ranks — and a better one than the hand-picked
  ``forward@0`` (the profile's demand shares are skewed, so the
  lightest-loaded rank makes the better relay);
* the static ranking agrees with the simulated ordering (the model is
  calibrated, not just decorative), and the hill-climb finds the same
  winner the enumeration does;
* both real partitioners beat the random baseline.

The workload is one short profile plus a handful of bisection probes,
and the record is byte-identical at any ``REPRO_PLACE_JOBS`` level — the
CI place-smoke job ``cmp``s serial against ``jobs=2``.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import typing as _t

from .. import obs as _obs
from ..load import (
    FixedSize,
    FleetSpec,
    LoadScenario,
    OpenLoop,
    SLO,
    run_scenario,
)
from ..obs.graph import CommGraph, extract_graph
from ..place import (
    Candidate,
    PartitionCost,
    SearchResult,
    ServingDemand,
    direct_placement,
    kernighan_lin_refine,
    neighborhood_search,
    ordering_agreement,
    partition_cost,
    random_partition,
    search_placements,
    serving_demand,
    spectral_partition,
    write_placement,
)
from ..util.records import ResultTable
from . import Artefact, RunOptions
from .record import DIR_HIGHER, DIR_NONE, KIND_COUNT, Metric, slug

#: Fan the top-k capacity validations out over this many worker
#: processes (``REPRO_PLACE_JOBS`` in the environment; the merged
#: result is byte-identical to the serial run at any level).
JOBS_ENV = "REPRO_PLACE_JOBS"

#: The serving workload being placed: the §4.3 setup — eight clients of
#: remote RPC against three serving ranks over the untuned stack.
CLIENTS = 8
REMOTE_SERVERS = 3
PAYLOAD_BYTES = 1024
SERVICE_OPS = 10
SERVICE_TIME_S = 200e-6
DURATION_S = 0.2

#: The profiling rate: deep enough into saturation that every rank's
#: demand share is visible in the graph.
PROFILE_RATE = 2000.0

#: Capacity-validation bisection: bracket, tolerance, probe budget.
SEARCH_LOW = 200.0
SEARCH_HIGH = 6000.0
SEARCH_TOLERANCE = 0.05
SEARCH_MAX_PROBES = 6
SEARCH_TOP_K = 4

#: Partitioner bake-off: split the graph in two (clients | servers is
#: the natural cut) and require the real partitioners to beat this
#: seeded random baseline on the wire-weighted objective.
BAKEOFF_K = 2
BAKEOFF_SEED = 0

#: Minimum static-vs-simulated rank concordance the model must hold.
MIN_AGREEMENT = 0.75


def serving_scenario() -> LoadScenario:
    """The workload every placement candidate is priced against."""
    return LoadScenario(
        name="serving",
        fleets=(FleetSpec("rpc", clients=CLIENTS,
                          arrival=OpenLoop(rate=30.0),
                          sizes=FixedSize(PAYLOAD_BYTES), route="remote",
                          service_ops=SERVICE_OPS,
                          service_time=SERVICE_TIME_S),),
        duration=DURATION_S, remote_servers=REMOTE_SERVERS)


def serving_slo() -> SLO:
    """Goodput-bound capacity SLO (latency generous by design: the
    static model prices throughput, and so must the validator)."""
    return SLO(name="capacity", p99_latency_us=50_000.0,
               min_goodput_fraction=0.9)


def place_jobs() -> int:
    """Worker count for the capacity fan-out.

    ``REPRO_PLACE_JOBS`` from the environment, forced serial inside a
    daemonic process (a ``--jobs`` bench worker cannot spawn a nested
    pool) — the results are byte-identical either way.
    """
    try:
        jobs = int(os.environ.get(JOBS_ENV, "1"))
    except ValueError:
        return 1
    if jobs > 1 and multiprocessing.current_process().daemon:
        return 1
    return max(1, jobs)


@dataclasses.dataclass
class PlaceBench:
    """Everything the placement artefact decided."""

    graph: CommGraph
    demand: ServingDemand
    #: Partitioner bake-off: strategy name -> objective score.
    partitions: dict[str, PartitionCost]
    search: SearchResult
    hill: Candidate
    agreement: float
    jobs: int

    def partition_table(self) -> ResultTable:
        table = ResultTable(
            f"Partitioner bake-off (k={BAKEOFF_K}, lower is better)",
            ["cut ms", "imbalance", "score ms"])
        for name, cost in self.partitions.items():
            table.add(name, cost.wire_cut_s * 1e3, cost.imbalance,
                      cost.score * 1e3)
        return table

    def demand_table(self) -> ResultTable:
        table = ResultTable(
            "Per-rank demand shares (from the profiled graph)",
            ["share"])
        for index, share in self.demand.shares:
            table.add(f"serve@{index}", share)
        return table

    def search_table(self) -> ResultTable:
        table = ResultTable(
            "Placement search (static rank, simulated validation)",
            ["static rps", "simulated rps", "probes"])
        for validated in self.search.validated:
            table.add(validated.label,
                      validated.static.static_capacity,
                      validated.capacity,
                      float(len(validated.result.probes)))
        return table

    def render(self) -> str:
        sections = [self.demand_table().render(4),
                    self.partition_table().render(2),
                    self.search_table().render(1)]
        return "\n".join([
            "\n\n".join(sections),
            self.search.summary(),
            f"hill-climb from direct: {self.hill.label} "
            f"(static {self.hill.static.static_capacity:.1f}/s); "
            f"static/simulated agreement {self.agreement:.2f} "
            f"at jobs={self.jobs}"])

    def metrics(self) -> _t.Iterator[Metric]:
        """Demand shares, partitioner bake-off, the placement search."""
        yield Metric("graph.nodes", len(self.graph.nodes), unit="nodes",
                     kind=KIND_COUNT)
        yield Metric("graph.edges", len(self.graph.edges), unit="edges",
                     kind=KIND_COUNT)
        yield Metric("demand.messages", self.demand.messages, unit="msgs",
                     kind=KIND_COUNT)
        yield Metric("demand.mean_bytes", self.demand.mean_bytes, unit="B",
                     kind=KIND_COUNT, direction=DIR_NONE)
        for index, share in self.demand.shares:
            yield Metric(f"demand.share.serve{index}", share, unit="frac",
                         direction=DIR_NONE)

        for name, cost in self.partitions.items():
            base = f"partition.{slug(name)}"
            yield Metric(f"{base}.cut_ms", cost.wire_cut_s * 1e3, unit="ms")
            yield Metric(f"{base}.imbalance", cost.imbalance, unit="x")
            yield Metric(f"{base}.score_ms", cost.score * 1e3, unit="ms")

        for candidate in self.search.candidates:
            yield Metric(f"candidate.{slug(candidate.label)}.static_rps",
                         candidate.static.static_capacity, unit="req/s",
                         direction=DIR_HIGHER)
        for validated in self.search.validated:
            base = f"capacity.{slug(validated.label)}"
            yield Metric(f"{base}.rate", validated.capacity, unit="req/s",
                         direction=DIR_HIGHER)
            yield Metric(f"{base}.probes", len(validated.result.probes),
                         unit="probes", kind=KIND_COUNT)

        best = self.search.best
        forwarder = best.placement.forwarder
        yield Metric("best.capacity", best.capacity, unit="req/s",
                     direction=DIR_HIGHER)
        yield Metric("best.is_forwarding", float(forwarder is not None),
                     unit="bool", kind=KIND_COUNT, direction=DIR_HIGHER)
        yield Metric("best.forwarder",
                     -1.0 if forwarder is None else float(forwarder),
                     unit="rank", kind=KIND_COUNT, direction=DIR_NONE)
        yield Metric("agreement", self.agreement, unit="frac",
                     direction=DIR_HIGHER)
        yield Metric("hill.matches_best",
                     float(self.hill.label == best.label), unit="bool",
                     kind=KIND_COUNT, direction=DIR_HIGHER)


def place_bench(options: RunOptions = RunOptions()) -> PlaceBench:
    """Run the whole placement artefact; with ``options.export_dir`` the
    winning ``placement.json`` is written there."""
    scenario = serving_scenario()
    with _obs.collecting() as runs:
        run_scenario(scenario.at_rate(PROFILE_RATE))
    profile_obs, profile_nexus = runs[-1]
    graph = extract_graph(profile_obs, nexus=profile_nexus)
    demand = serving_demand(graph)

    baseline = random_partition(graph, BAKEOFF_K, seed=BAKEOFF_SEED)
    refined = kernighan_lin_refine(graph, baseline)
    partitions = {
        "random (seed 0)": partition_cost(graph, baseline),
        "kernighan-lin": partition_cost(graph, refined),
        "spectral": partition_cost(
            graph, spectral_partition(graph, BAKEOFF_K)),
    }

    jobs = place_jobs()
    search = search_placements(
        graph, scenario, serving_slo(), top_k=SEARCH_TOP_K,
        low=SEARCH_LOW, high=SEARCH_HIGH, tolerance=SEARCH_TOLERANCE,
        max_probes=SEARCH_MAX_PROBES, jobs=jobs, assignment=refined)
    hill = neighborhood_search(graph, scenario, direct_placement())
    agreement = ordering_agreement(search.validated)

    if options.export_dir is not None:
        os.makedirs(options.export_dir, exist_ok=True)
        best = search.best
        write_placement(
            os.path.join(options.export_dir, "placement.json"),
            best.placement,
            meta={"scenario": scenario.name, "seed": scenario.seed,
                  "label": best.label,
                  "capacity_rps": best.capacity,
                  "static_capacity_rps": best.static.static_capacity,
                  "binding": best.static.binding,
                  "agreement": agreement})

    return PlaceBench(graph=graph, demand=demand, partitions=partitions,
                      search=search, hill=hill, agreement=agreement,
                      jobs=jobs)


def check_place_shape(bench: PlaceBench) -> None:
    """Assert the §4.3 rediscovery.

    1. The searched optimum is a forwarding placement, co-located on
       one of the remote-serving ranks recovered from the profile.
    2. It is at least as good as the hand-picked ``forward@0``
       configuration PR 5 benchmarked — the planner rediscovers the
       paper's design *and* improves on the manual rank choice.
    3. The static model is calibrated: its ranking agrees with the
       simulated ordering, and the greedy hill-climb lands on the same
       winner as the exhaustive enumeration.
    4. Both real partitioners beat the seeded random baseline on the
       wire-weighted cut objective.
    """
    best = bench.search.best
    serving_ranks = set(bench.demand.share_map())
    assert best.placement.forwarder is not None, (
        "the searched optimum should install the §4.3 forwarding "
        f"processor, got {best.label}:\n" + bench.search.summary())
    assert best.placement.forwarder in serving_ranks, (
        f"forwarder rank {best.placement.forwarder} is not one of the "
        f"serving ranks {sorted(serving_ranks)}")

    by_label = bench.search.validated_by_label()
    hand_picked = by_label.get("forward@0")
    assert hand_picked is not None, (
        "the hand-picked forward@0 configuration should be in the "
        "validated top-k:\n" + bench.search.summary())
    assert best.capacity >= hand_picked.capacity, (
        f"searched placement {best.label} ({best.capacity:.1f}/s) "
        f"should not lose to hand-picked forward@0 "
        f"({hand_picked.capacity:.1f}/s)")

    assert bench.agreement >= MIN_AGREEMENT, (
        f"static/simulated rank agreement {bench.agreement:.2f} below "
        f"{MIN_AGREEMENT}:\n" + bench.search.summary())
    assert bench.hill.label == best.label, (
        f"hill-climb from direct reached {bench.hill.label}, "
        f"enumeration chose {best.label}")

    random_score = bench.partitions["random (seed 0)"].score
    for name in ("kernighan-lin", "spectral"):
        assert bench.partitions[name].score < random_score, (
            f"{name} score {bench.partitions[name].score:.6f} does not "
            f"beat random baseline {random_score:.6f}")


ARTEFACT = Artefact("place", place_bench, check_place_shape)
