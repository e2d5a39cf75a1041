"""The load tier: SLO-gated scenarios and the capacity comparison.

Two halves:

* **Scenario suite** — a steady mixed workload (open-loop remote RPC
  with per-request service work + a closed-loop local fleet), a bursty
  variant, and the steady workload re-run under a flaky inter-partition
  TCP window.  Each is judged against a declarative
  :class:`~repro.load.slo.SLO`.
* **Capacity comparison** — :func:`~repro.load.capacity.find_capacity`
  over three stack tunings of the same serving workload: untuned
  polling, tuned ``skip_poll``, and the §4.3 forwarding processor.  The
  paper's Table 1 ordering must reproduce as *capacity*: tuned polling
  sustains strictly more SLO-compliant load than forwarding, which
  roughly tracks untuned polling (the forwarder rank still pays the
  full poll tax and relays everyone else's traffic on top).

Everything is a pure function of the scenario seeds, so two runs emit
byte-identical records.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..load import (
    Bursty,
    CapacityResult,
    ClosedLoop,
    FixedSize,
    FleetSpec,
    LoadResult,
    LoadScenario,
    LognormalSize,
    OpenLoop,
    SLO,
    SLOVerdict,
    evaluate,
    find_capacity,
    run_scenario,
)
from ..place.plan import forwarding_placement
from ..simnet.faults import FaultPlan
from ..util.document import DocumentError
from ..util.records import ResultTable
from . import Artefact, RunOptions
from .record import DIR_HIGHER, DIR_NONE, KIND_COUNT, Metric, slug

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..testbeds import SP2Testbed

#: Per-request service work on the serving ranks: enough Nexus ops that
#: the TCP poll tax is the dominant overhead when untuned.
SERVICE_OPS = 10
SERVICE_TIME_S = 200e-6

#: skip_poll for the tuned capacity variant (interior optimum region).
TUNED_SKIP = 10


def _chaos_window(bed: "SP2Testbed") -> FaultPlan:
    """A flaky inter-partition TCP window over the middle of the run."""
    return FaultPlan(bed.nexus.network).flaky(
        bed.partition_a, bed.partition_b, transport="tcp",
        start=0.1, duration=0.15, drop_probability=0.2, seed=7)


def _steady_fleets() -> tuple[FleetSpec, ...]:
    return (
        FleetSpec("rpc-remote", clients=6, arrival=OpenLoop(rate=60.0),
                  sizes=FixedSize(2048), route="remote",
                  service_ops=SERVICE_OPS, service_time=SERVICE_TIME_S),
        FleetSpec("interactive-local", clients=2,
                  arrival=ClosedLoop(think_time=0.01),
                  sizes=LognormalSize(median=512.0), route="local"),
    )


def scenarios(quick: bool = False) -> dict[str, LoadScenario]:
    """The scenario suite, keyed by record-friendly name."""
    duration = 0.25 if quick else 0.5
    steady = LoadScenario(name="steady", fleets=_steady_fleets(),
                          duration=duration, skip_poll=(("tcp", 4),))
    bursty = dataclasses.replace(
        steady, name="bursty",
        fleets=(dataclasses.replace(
            steady.fleets[0],
            arrival=OpenLoop(rate=60.0,
                             modulation=Bursty(period=0.1, duty=0.25,
                                               boost=3.0, quiet=0.25))),
                steady.fleets[1]))
    chaos = dataclasses.replace(steady, name="chaos-flaky-tcp",
                                chaos=_chaos_window)
    return {s.name: s for s in (steady, bursty, chaos)}


#: Enforced per-window p99 budget for healthy runs (µs): above every
#: bucket a steady window legitimately lands in, so it gates genuine
#: windowed regressions without flapping on warmup noise.
STEADY_WINDOW_P99_US = 25_000.0
#: Detection-only windowed budget for the chaos run (µs): between the
#: steady-state 5 000 µs bucket and the 10 000 µs bucket retried
#: in-window RSRs land in, so the flaky window shows up as violations.
CHAOS_WINDOW_P99_US = 7_500.0
WARMUP_WINDOWS = 2


def slos() -> dict[str, SLO]:
    """Budgets per scenario.  The chaos run keeps the latency budget but
    is allowed its retry storm (TCP rides out the window via retries);
    its windowed budget is detection-only (``enforce_windows=False``):
    the in-window violations and the recovery time are recorded without
    failing the run the aggregate budgets pass."""
    steady = SLO(name="steady", p50_latency_us=10_000.0,
                 p99_latency_us=50_000.0, min_goodput_fraction=0.85,
                 max_drop_fraction=0.01, max_retry_fraction=0.01,
                 window_p99_latency_us=STEADY_WINDOW_P99_US,
                 warmup_windows=WARMUP_WINDOWS)
    return {
        "steady": steady,
        "bursty": dataclasses.replace(steady, name="bursty"),
        "chaos-flaky-tcp": dataclasses.replace(
            steady, name="chaos", max_retry_fraction=0.25,
            window_p99_latency_us=CHAOS_WINDOW_P99_US,
            enforce_windows=False),
    }


def _capacity_base(quick: bool) -> LoadScenario:
    return LoadScenario(
        name="serving",
        fleets=(FleetSpec("rpc", clients=8, arrival=OpenLoop(rate=30.0),
                          sizes=FixedSize(1024), route="remote",
                          service_ops=SERVICE_OPS,
                          service_time=SERVICE_TIME_S),),
        duration=0.2 if quick else 0.4)


def capacity_variants(quick: bool = False) -> dict[str, LoadScenario]:
    base = _capacity_base(quick)
    return {
        "untuned": dataclasses.replace(base, name="untuned"),
        "tuned-skip-poll": dataclasses.replace(
            base, name="tuned-skip-poll",
            skip_poll=(("tcp", TUNED_SKIP),)),
        "forwarding": dataclasses.replace(
            base, name="forwarding", placement=forwarding_placement()),
    }


#: The operating budget capacity is planned against.
CAPACITY_SLO = SLO(name="capacity", p99_latency_us=50_000.0,
                   min_goodput_fraction=0.9)


@dataclasses.dataclass
class LoadBench:
    """Everything the load artefact produced."""

    results: dict[str, LoadResult]
    verdicts: dict[str, SLOVerdict]
    capacities: dict[str, CapacityResult]

    def scenario_table(self) -> ResultTable:
        table = ResultTable(
            "Load scenarios under SLO",
            ["offered/s", "delivered/s", "p50 us", "p99 us", "retries",
             "SLO pass"])
        for name, result in self.results.items():
            verdict = self.verdicts[name]
            table.add(name, result.offered_rate, result.delivered_rate,
                      result.quantile_us(0.5) or 0.0,
                      result.quantile_us(0.99) or 0.0,
                      result.retries, float(verdict.passed))
        return table

    def capacity_table(self) -> ResultTable:
        table = ResultTable(
            "SLO-compliant capacity by tuning (RSRs/sim-second)",
            ["capacity/s", "probes"])
        for name, cap in self.capacities.items():
            table.add(name, cap.capacity, len(cap.probes))
        return table

    def render(self) -> str:
        return "\n".join(
            [self.scenario_table().render(1), "",
             self.capacity_table().render(1)]
            + [verdict.summary() for verdict in self.verdicts.values()])

    def metrics(self) -> _t.Iterator[Metric]:
        """SLO scenario outcomes and capacity search results."""
        for name, result in self.results.items():
            base = slug(name)
            verdict = self.verdicts[name]
            yield Metric(f"{base}.offered", result.offered, unit="rsrs",
                         kind=KIND_COUNT)
            yield Metric(f"{base}.delivered", result.delivered,
                         unit="rsrs", kind=KIND_COUNT, direction=DIR_HIGHER)
            yield Metric(f"{base}.retries", result.retries, unit="retries",
                         kind=KIND_COUNT)
            yield Metric(f"{base}.dropped", result.messages_dropped,
                         unit="msgs", kind=KIND_COUNT)
            yield Metric(f"{base}.delivered_rate", result.delivered_rate,
                         unit="rsr/s", direction=DIR_HIGHER)
            yield Metric(f"{base}.p50_us", result.quantile_us(0.5) or 0.0,
                         unit="us")
            yield Metric(f"{base}.p99_us", result.quantile_us(0.99) or 0.0,
                         unit="us")
            yield Metric(f"{base}.slo_passed", float(verdict.passed),
                         unit="bool", kind=KIND_COUNT, direction=DIR_HIGHER)
            yield from windowed_metrics(base, verdict.windowed)
        for name, cap in self.capacities.items():
            base = slug(name)
            yield Metric(f"capacity.{base}.rate", cap.capacity,
                         unit="rsr/s", direction=DIR_HIGHER)
            yield Metric(f"capacity.{base}.probes", len(cap.probes),
                         unit="probes", kind=KIND_COUNT, direction=DIR_NONE)


def windowed_metrics(base: str, windowed: _t.Any) -> _t.Iterator[Metric]:
    """Windowed-verdict metrics for one scenario (none without one).

    ``worst_window_p99_us`` is recorded only when at least one window
    measured anything, and ``recovery_ms`` only for runs whose fault
    plan cleared — the metric *set* stays a pure function of the
    scenario, so byte-determinism across identical runs holds.
    """
    if windowed is None:
        return
    yield Metric(f"{base}.window_violations", len(windowed.violations),
                 unit="windows", kind=KIND_COUNT)
    yield Metric(f"{base}.window_empty", len(windowed.empty_windows),
                 unit="windows", kind=KIND_COUNT)
    yield Metric(f"{base}.windowed_passed", float(windowed.passed),
                 unit="bool", kind=KIND_COUNT, direction=DIR_NONE)
    if windowed.worst_p99_us is not None:
        yield Metric(f"{base}.worst_window_p99_us", windowed.worst_p99_us,
                     unit="us")
    if windowed.fault_clear_s is not None:
        yield Metric(f"{base}.fault_clear_s", windowed.fault_clear_s,
                     unit="s", direction=DIR_NONE)
    if windowed.recovery_time_s is not None:
        yield Metric(f"{base}.recovery_ms", windowed.recovery_time_s * 1e3,
                     unit="ms")
    if windowed.saturation_onset_window is not None:
        yield Metric(f"{base}.saturation_onset_window",
                     windowed.saturation_onset_window, unit="window",
                     kind=KIND_COUNT, direction=DIR_NONE)


#: Counters every load scenario must publish next to its SLO verdict.
LOAD_SCENARIO_METRICS = ("offered", "delivered", "delivered_rate",
                         "p50_us", "p99_us")


def validate_load_record(document: _t.Mapping[str, object]
                         ) -> dict[str, object]:
    """Load-tier checks over an already structurally-valid bench record.

    A record without a ``load`` artefact passes trivially (zero
    scenarios); one *with* it must carry complete SLO-judged scenarios
    (verdict, the counters it was judged from, delivered <= offered)
    and complete capacity searches (rate and probe count).
    """
    artefacts = _t.cast(dict, document.get("artefacts", {}))
    load = artefacts.get("load")
    if load is None:
        return {"load_scenarios": 0, "capacity_searches": 0}
    metrics = _t.cast(dict, _t.cast(dict, load)["metrics"])

    scenarios = sorted(name[: -len(".slo_passed")] for name in metrics
                       if name.endswith(".slo_passed"))
    if not scenarios:
        raise DocumentError(
            "load artefact present but no <scenario>.slo_passed metrics")
    for scenario in scenarios:
        for suffix in LOAD_SCENARIO_METRICS:
            if f"{scenario}.{suffix}" not in metrics:
                raise DocumentError(
                    f"load scenario {scenario!r} lacks {suffix}")
        offered = _t.cast(dict, metrics[f"{scenario}.offered"])["value"]
        delivered = _t.cast(dict, metrics[f"{scenario}.delivered"])["value"]
        if delivered > offered:
            raise DocumentError(
                f"load scenario {scenario!r} delivered {delivered} "
                f"> offered {offered}")

    searches = sorted({name.split(".")[1] for name in metrics
                       if name.startswith("capacity.")})
    for search in searches:
        for suffix in ("rate", "probes"):
            if f"capacity.{search}.{suffix}" not in metrics:
                raise DocumentError(
                    f"capacity search {search!r} lacks {suffix}")

    return {"load_scenarios": len(scenarios),
            "capacity_searches": len(searches)}


def load_bench(options: RunOptions = RunOptions()) -> LoadBench:
    """Run the whole load artefact (scenario suite + capacity search)."""
    quick = options.quick
    suite = scenarios(quick)
    budgets = slos()
    results: dict[str, LoadResult] = {}
    verdicts: dict[str, SLOVerdict] = {}
    for name, scenario in suite.items():
        result = run_scenario(scenario)
        results[name] = result
        verdicts[name] = evaluate(result, budgets[name])

    capacities: dict[str, CapacityResult] = {}
    max_probes = 6 if quick else 9
    for name, variant in capacity_variants(quick).items():
        capacities[name] = find_capacity(
            variant, CAPACITY_SLO, low=200.0, high=6000.0,
            tolerance=0.05, max_probes=max_probes)

    return LoadBench(results=results, verdicts=verdicts,
                     capacities=capacities)


def check_load_shape(bench: LoadBench) -> None:
    """Assert the qualitative load-tier findings.

    1. The steady and bursty workloads meet their SLOs outright.
    2. The chaos window forces retries, yet the SLO still passes — the
       multimethod stack rides out the flaky TCP window (the retry
       budget is the only loosened objective).
    3. Capacity ordering reproduces Table 1: tuned polling sustains
       strictly more SLO-compliant load than the forwarding processor,
       and forwarding lands in the same regime as untuned polling
       rather than anywhere near the tuned configuration.
    """
    assert bench.verdicts["steady"].passed, (
        "steady workload violated its SLO:\n"
        + bench.verdicts["steady"].summary())
    assert bench.verdicts["bursty"].passed, (
        "bursty workload violated its SLO:\n"
        + bench.verdicts["bursty"].summary())

    chaos = bench.results["chaos-flaky-tcp"]
    assert chaos.retries > 0, (
        "the flaky TCP window should force send-path retries")
    assert bench.verdicts["chaos-flaky-tcp"].passed, (
        "chaos workload should survive the flaky window:\n"
        + bench.verdicts["chaos-flaky-tcp"].summary())
    windowed = bench.verdicts["chaos-flaky-tcp"].windowed
    assert windowed is not None, (
        "chaos run should carry a windowed verdict")
    assert windowed.violations, (
        "the detection-only windowed budget should record the in-window "
        "p99 violations the aggregate misses:\n" + windowed.summary())
    assert windowed.recovery_time_s is not None \
        and windowed.recovery_time_s > 0, (
            "chaos recovery time should be measured and positive, got "
            f"{windowed.recovery_time_s!r}")

    tuned = bench.capacities["tuned-skip-poll"].capacity
    forwarding = bench.capacities["forwarding"].capacity
    untuned = bench.capacities["untuned"].capacity
    assert tuned > forwarding > 0.0, (
        f"tuned skip_poll capacity ({tuned:.0f}/s) should strictly exceed "
        f"the forwarding processor ({forwarding:.0f}/s)")
    assert forwarding < (untuned + tuned) / 2, (
        f"forwarding ({forwarding:.0f}/s) should track the untuned regime "
        f"({untuned:.0f}/s), not the tuned one ({tuned:.0f}/s)")


ARTEFACT = Artefact("load", load_bench, check_load_shape)
