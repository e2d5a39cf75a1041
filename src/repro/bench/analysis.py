"""The analysis tier: windowed telemetry, comm-graph, and critical paths.

Two deterministic load runs feed the three ``repro.obs`` analysis
surfaces:

* **Chaos run** — the steady remote-RPC workload with a flaky
  inter-partition TCP window in the middle, and UDP available as the
  failover method.  The aggregate SLO passes (multimethod failover
  rides out the window) while the *windowed* verdict records the
  in-window p99 violations the aggregate averages away, plus the
  sim-time from fault clearing back to an in-budget window — the
  recovery-time metric.
* **Forwarding run** — remote traffic relayed through the §4.3
  forwarding processor, giving the communication graph a genuine
  multi-hop topology and the critical paths a forward hop to attribute.

Everything is a pure function of the scenario seeds; with
``RunOptions.export_dir`` set (the ``--export-dir`` CLI flag) the
artefact writes ``timeline.json``, ``graph.json``, ``graph.dot``, and
``critpath.json`` — byte-identical across repeated runs and whether the
spans stayed in memory or were spooled (``--stream-dir``: the products
then read the spool back), which CI's ``regression-gate`` and
``stream-smoke`` jobs assert with ``cmp`` and ``diff -r``.
"""

from __future__ import annotations

import dataclasses
import os
import typing as _t

from .. import obs as _obs
from ..load import (
    FixedSize,
    FleetSpec,
    LoadResult,
    LoadScenario,
    OpenLoop,
    SLO,
    SLOVerdict,
    evaluate,
    run_scenario,
)
from ..obs.critpath import (
    CriticalPath,
    extract_critical_paths,
    phase_attribution,
    write_critpaths,
)
from ..obs.graph import (
    CommGraph,
    PartitionCosts,
    evaluate_partition,
    extract_graph,
    write_dot,
    write_graph,
)
from ..obs.stream import StreamConfig
from ..obs.timeline import write_timeline
from ..place.plan import forwarding_placement
from ..simnet.faults import FaultPlan
from ..util.records import ResultTable
from ..util.report import critical_path_report
from . import Artefact, RunOptions
from .load import SERVICE_OPS, SERVICE_TIME_S, windowed_metrics
from .record import DIR_HIGHER, DIR_NONE, KIND_COUNT, Metric, slug

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..testbeds import SP2Testbed

#: The flaky window: strong enough to force retries and failovers,
#: cleared well before the offered window ends so recovery is visible.
FAULT_START = 0.10
FAULT_DURATION = 0.08
DROP_PROBABILITY = 0.6

#: Windowed budget (µs).  Steady-state windows sit in the 5 000 µs
#: histogram bucket; fault windows (retry backoff + failover attempts)
#: land in the 10 000 µs bucket, so the budget between the two buckets
#: separates them cleanly at histogram resolution.
WINDOW_P99_US = 7_500.0
WARMUP_WINDOWS = 4

#: How many critical paths the report and export keep.
TOP_PATHS = 5


def _chaos_window(bed: "SP2Testbed") -> FaultPlan:
    return FaultPlan(bed.nexus.network).flaky(
        bed.partition_a, bed.partition_b, transport="tcp",
        start=FAULT_START, duration=FAULT_DURATION,
        drop_probability=DROP_PROBABILITY, seed=11)


def chaos_scenario() -> LoadScenario:
    """Steady remote RPC with a mid-run flaky TCP window and UDP as the
    failover method: one short run with a tuned fault arc."""
    return LoadScenario(
        name="analysis-chaos",
        fleets=(FleetSpec("rpc-remote", clients=6,
                          arrival=OpenLoop(rate=60.0),
                          sizes=FixedSize(2048), route="remote",
                          service_ops=SERVICE_OPS,
                          service_time=SERVICE_TIME_S),),
        duration=0.3, timeline_windows=15,
        transports=("local", "mpl", "tcp", "udp"),
        skip_poll=(("tcp", 4),), chaos=_chaos_window)


def forwarding_scenario() -> LoadScenario:
    """Remote traffic through the forwarding processor: the multi-hop
    topology the graph and critical-path extractors are pointed at.
    The placement is the hand-picked §4.3 configuration."""
    return LoadScenario(
        name="analysis-forward",
        fleets=(FleetSpec("rpc-forward", clients=4,
                          arrival=OpenLoop(rate=50.0),
                          sizes=FixedSize(1024), route="remote"),),
        duration=0.2, timeline_windows=10,
        remote_servers=3, placement=forwarding_placement(),
        skip_poll=(("tcp", 4),))


def chaos_slo() -> SLO:
    """Aggregate budgets the chaos run must meet outright, plus the
    detection-only windowed budget (``enforce_windows=False``): the
    in-window violations and the recovery time stay visible in the
    :class:`~repro.load.slo.WindowedVerdict` without failing the run."""
    return SLO(name="analysis-chaos",
               p50_latency_us=10_000.0, p99_latency_us=50_000.0,
               min_goodput_fraction=0.7, max_drop_fraction=0.1,
               max_retry_fraction=0.5,
               window_p99_latency_us=WINDOW_P99_US,
               warmup_windows=WARMUP_WINDOWS,
               enforce_windows=False)


def _fault_windows(result: LoadResult) -> tuple[int, ...]:
    """Timeline windows overlapping the run's installed fault arc."""
    timeline = result.timeline
    if timeline is None or not result.fault_log:
        return ()
    start = min(when for when, _action, _detail in result.fault_log)
    stop = max(when for when, _action, _detail in result.fault_log)
    return tuple(
        window for window in range(timeline.window_of(start),
                                   timeline.window_of(stop) + 1)
        if not timeline.window_end(window) <= start)


def _partition_assignment(graph: CommGraph) -> dict[int, str]:
    """Rank → partition label, from the load tier's naming convention."""
    return {node.rank: ("B" if node.component.startswith("srv/remote")
                        else "A")
            for node in graph.node_list()}


@dataclasses.dataclass
class AnalysisBench:
    """Everything the analysis artefact produced."""

    chaos_result: LoadResult
    chaos_verdict: SLOVerdict
    forward_result: LoadResult
    graph: CommGraph
    partition_costs: PartitionCosts
    paths: list[CriticalPath]

    def windowed_table(self) -> ResultTable:
        windowed = self.chaos_verdict.windowed
        assert windowed is not None
        table = ResultTable(
            "Windowed SLO under chaos (detection-only)",
            ["value"])
        table.add("windows judged",
                  float(windowed.window_hi - windowed.window_lo + 1))
        table.add("violations", float(len(windowed.violations)))
        table.add("empty (n/a)", float(len(windowed.empty_windows)))
        table.add("worst p99 us", windowed.worst_p99_us
                  if windowed.worst_p99_us is not None else float("nan"))
        table.add("fault clear s", windowed.fault_clear_s
                  if windowed.fault_clear_s is not None else float("nan"))
        table.add("recovery ms",
                  windowed.recovery_time_s * 1e3
                  if windowed.recovery_time_s is not None else float("nan"))
        return table

    def graph_table(self) -> ResultTable:
        table = ResultTable("Communication graph (forwarding run)",
                            ["value"])
        table.add("nodes", float(len(self.graph.nodes)))
        table.add("edges", float(len(self.graph.edges)))
        table.add("messages", float(self.graph.total_messages))
        table.add("bytes", float(self.graph.total_bytes))
        table.add("cross-cut bytes",
                  float(self.partition_costs.cross["bytes"]))
        table.add("cut fraction (bytes)",
                  _t.cast(float, self.partition_costs.cut_fraction_bytes))
        return table

    def render(self) -> str:
        sections = [self.windowed_table().render(2),
                    self.graph_table().render(4),
                    critical_path_report(self.paths, top_n=TOP_PATHS)]
        lines = ["\n\n".join(sections), self.chaos_verdict.summary()]
        for label, result in (("chaos", self.chaos_result),
                              ("forward", self.forward_result)):
            stream = result.stream
            if stream is not None:
                lines.append(
                    f"stream[{label}]: {stream['spans_emitted']} spans "
                    f"({stream['spans_sampled_out']} sampled out) in "
                    f"{stream['shards']} shard(s), "
                    f"{stream['bytes_written']} bytes, peak "
                    f"{stream['peak_open_spans']} open spans "
                    f"-> {stream['directory']}")
        return "\n".join(lines)

    def metrics(self) -> _t.Iterator[Metric]:
        """Windowed chaos outcome, comm-graph shape, critical paths."""
        chaos = self.chaos_result
        yield Metric("chaos.offered", chaos.offered, unit="rsrs",
                     kind=KIND_COUNT)
        yield Metric("chaos.delivered", chaos.delivered, unit="rsrs",
                     kind=KIND_COUNT, direction=DIR_HIGHER)
        yield Metric("chaos.retries", chaos.retries, unit="retries",
                     kind=KIND_COUNT)
        yield Metric("chaos.failovers", chaos.failovers, unit="failovers",
                     kind=KIND_COUNT)
        yield Metric("chaos.slo_passed", float(self.chaos_verdict.passed),
                     unit="bool", kind=KIND_COUNT, direction=DIR_HIGHER)
        yield from windowed_metrics("chaos", self.chaos_verdict.windowed)

        yield Metric("graph.nodes", len(self.graph.nodes), unit="nodes",
                     kind=KIND_COUNT)
        yield Metric("graph.edges", len(self.graph.edges), unit="edges",
                     kind=KIND_COUNT)
        yield Metric("graph.messages", self.graph.total_messages,
                     unit="msgs", kind=KIND_COUNT)
        yield Metric("graph.bytes", self.graph.total_bytes, unit="B",
                     kind=KIND_COUNT)
        yield Metric("graph.cut_fraction_bytes",
                     _t.cast(float, self.partition_costs.cut_fraction_bytes),
                     unit="frac", direction=DIR_NONE)

        yield Metric("critpath.paths", len(self.paths), unit="paths",
                     kind=KIND_COUNT)
        if self.paths:
            top = self.paths[0]
            yield Metric("critpath.top_latency_us", top.latency_s * 1e6,
                         unit="us")
            yield Metric("critpath.top_wire_hops", top.wire_hops,
                         unit="hops", kind=KIND_COUNT)
            for phase, share in phase_attribution(self.paths).items():
                yield Metric(f"critpath.phase.{slug(phase)}_us",
                             share * 1e6, unit="us")


def analysis_bench(options: RunOptions = RunOptions()) -> AnalysisBench:
    """Run the whole analysis artefact.

    With ``options.stream_dir`` both runs spool their spans to
    ``<stream_dir>/chaos`` and ``<stream_dir>/forward`` instead of the
    in-memory log; the graph and critical paths read whichever sink ran,
    so they are byte-identical to the in-memory run's unless
    ``options.sample`` names a sampling policy (partial by design).
    With ``options.export_dir`` the four analysis documents are written
    there.
    """
    def stream_config(sub: str) -> StreamConfig | None:
        if options.stream_dir is None:
            return None
        return StreamConfig(
            directory=os.path.join(options.stream_dir, sub),
            policy=options.sample, seed=options.sample_seed)

    export_dir = options.export_dir
    chaos = chaos_scenario()
    with _obs.collecting():
        chaos_result = run_scenario(chaos, stream=stream_config("chaos"))
    chaos_verdict = evaluate(chaos_result, chaos_slo())

    forward = forwarding_scenario()
    with _obs.collecting() as runs:
        forward_result = run_scenario(forward,
                                      stream=stream_config("forward"))
    forward_obs, forward_nexus = runs[-1]
    graph = extract_graph(forward_obs, nexus=forward_nexus)
    paths = extract_critical_paths(forward_obs, top_k=TOP_PATHS)
    partition_costs = evaluate_partition(graph,
                                         _partition_assignment(graph))

    if export_dir is not None:
        os.makedirs(export_dir, exist_ok=True)
        timeline = chaos_result.timeline
        assert timeline is not None
        write_timeline(os.path.join(export_dir, "timeline.json"), timeline,
                       meta={"scenario": chaos.name, "seed": chaos.seed,
                             "fault_log": [list(entry) for entry
                                           in chaos_result.fault_log]})
        write_graph(os.path.join(export_dir, "graph.json"), graph,
                    meta={"scenario": forward.name, "seed": forward.seed})
        write_dot(os.path.join(export_dir, "graph.dot"), graph,
                  title=forward.name)
        write_critpaths(os.path.join(export_dir, "critpath.json"), paths,
                        meta={"scenario": forward.name,
                              "seed": forward.seed})

    return AnalysisBench(chaos_result=chaos_result,
                         chaos_verdict=chaos_verdict,
                         forward_result=forward_result,
                         graph=graph, partition_costs=partition_costs,
                         paths=paths)


def check_analysis_shape(bench: AnalysisBench) -> None:
    """Assert the qualitative analysis-tier findings.

    1. The chaos run passes its aggregate SLO — failover to UDP rides
       out the flaky TCP window.
    2. The windowed verdict still detects the outage: every violation
       budget's worth of in-fault windows shows up, so the transient the
       aggregate averaged away is on record.
    3. The recovery time is measured and positive: the run got back
       inside the windowed budget after the fault cleared.
    4. The forwarding run's communication graph has the relay topology
       (forward hops on the critical path, cross-partition traffic on
       the cut).
    """
    verdict = bench.chaos_verdict
    windowed = verdict.windowed
    assert windowed is not None, "chaos run recorded no windowed verdict"
    assert verdict.passed, (
        "chaos aggregate SLO should pass (failover rides out the "
        "window):\n" + verdict.summary())
    assert windowed.violations, (
        "windowed verdict should detect in-outage violations the "
        "aggregate misses:\n" + windowed.summary())
    in_fault = set(_fault_windows(bench.chaos_result))
    assert in_fault & set(windowed.violations), (
        f"violations {windowed.violations} never overlap the fault "
        f"windows {sorted(in_fault)}")
    assert bench.chaos_result.failovers > 0, (
        "the flaky TCP window should force method failovers")
    assert windowed.recovery_time_s is not None \
        and windowed.recovery_time_s > 0, (
            f"recovery time should be measured and positive, got "
            f"{windowed.recovery_time_s!r}")

    assert any(path.wire_hops >= 2 for path in bench.paths), (
        "forwarding critical paths should contain a multi-hop chain")
    assert "forward" in phase_attribution(bench.paths), (
        "critical paths should attribute time to the forward phase")
    assert bench.partition_costs.cross["messages"] > 0, (
        "forwarding run should put traffic on the partition cut")


ARTEFACT = Artefact("analysis", analysis_bench, check_analysis_shape)
