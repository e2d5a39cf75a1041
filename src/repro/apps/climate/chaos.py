"""Chaos variant of the coupled-climate run: outage, failover, recovery.

The failure-semantics showcase: the Table 1 coupled model (SELECTIVE
mode) runs with UDP enabled as a standby method, and a scheduled
:class:`~repro.simnet.faults.FaultPlan` severs **TCP between the two SP2
partitions** for a window in the middle of the run.  The expected arc:

1. couplings before the window run over TCP as usual;
2. the coupling that lands inside the window sees its TCP sends fail,
   retries with backoff, marks TCP *down*, and **fails over to UDP**
   (the next applicable method in the degradation ladder — MPL does not
   cross the partition boundary);
3. once the outage lifts and the health tracker's cool-off elapses, the
   next coupling **probes** TCP, succeeds, and re-selects it.

Everything is deterministic: the fault window is placed at fixed
fractions of a calibration run's duration (or passed explicitly), so two
identical seeded runs produce byte-identical span logs.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ... import obs as _obs
from ...core.enquiry import HealthReport, health_report
from ...core.health import HealthConfig
from ...core.retry import RetryPolicy
from ...simnet.faults import FaultPlan
from ...transports.costmodels import DEFAULT_COSTS, UDP_COSTS
from .config import TEST_CONFIG, ClimateConfig, ClimateMode
from .model import ClimateResult, run_coupled_model

#: Method set of the chaos run: UDP rides along as the standby ladder rung.
CHAOS_TRANSPORTS = ("local", "mpl", "tcp", "udp")

#: Small chaos workload: three couplings — before, during, and after the
#: outage window.
CHAOS_TEST_CONFIG = dataclasses.replace(TEST_CONFIG, steps=6)

#: Stochastic UDP loss off: the chaos run isolates *injected* faults.
CHAOS_COSTS = dataclasses.replace(DEFAULT_COSTS, transports={
    **DEFAULT_COSTS.transports,
    "udp": dataclasses.replace(UDP_COSTS, drop_probability=0.0)})


@dataclasses.dataclass
class ChaosResult:
    """Outcome of one chaos run: the climate result plus the fault arc."""

    climate: ClimateResult
    outage_start: float
    outage_duration: float
    #: Duration of the fault-free calibration run (0.0 when the window
    #: was given explicitly and no calibration ran).
    baseline_time: float
    health: HealthReport
    #: The fault plan's action log: ``(sim_time, action, scope)``.
    fault_log: tuple[tuple[float, str, str], ...]
    #: ``(Observability, Nexus)`` pairs of the chaos run (empty when
    #: ``observe=False``) — feed to the trace exporters.
    runs: tuple = ()

    @property
    def retries(self) -> int:
        return self.health.retries

    @property
    def failovers(self) -> int:
        return self.health.failovers

    @property
    def probes(self) -> int:
        return self.health.probes

    @property
    def recovered(self) -> bool:
        """Did TCP go down, come back, and end the run healthy?"""
        went_down = any(e[3] == "tcp" and e[4] == "down"
                        for e in self.health.events)
        came_up = any(e[3] == "tcp" and e[4] == "up"
                      for e in self.health.events)
        still_down = any(entry["method"] == "tcp"
                         for entry in self.health.down)
        return went_down and came_up and not still_down

    def timeline(self) -> list[tuple[float, str]]:
        """Merged fault-plan + health-transition narrative, time-sorted."""
        rows = [(when, f"fault: {action} {scope}")
                for when, action, scope in self.fault_log]
        rows += [(when, f"health: ctx{ctx} -> ctx{remote} "
                        f"{method} {transition}")
                 for when, ctx, remote, method, transition
                 in self.health.events]
        rows.sort(key=lambda row: (row[0], row[1]))
        return rows


def run_chaos_climate(cfg: ClimateConfig | None = None, *,
                      seed: int = 0,
                      outage_start: float | None = None,
                      outage_duration: float | None = None,
                      observe: bool = True) -> ChaosResult:
    """Run the coupled model through a mid-run inter-partition TCP outage.

    When ``outage_start``/``outage_duration`` are omitted the window is
    ``[40%, 75%]`` of a fault-free calibration run's duration — after the
    first coupling (which selects TCP), over the second (which fails over
    to UDP), lifting before the third (which probes TCP back up).
    """
    cfg = cfg or CHAOS_TEST_CONFIG
    kwargs: dict[str, _t.Any] = dict(
        transports=CHAOS_TRANSPORTS, costs=CHAOS_COSTS,
        methods=CHAOS_TRANSPORTS, seed=seed)

    baseline_time = 0.0
    if outage_start is None or outage_duration is None:
        baseline = run_coupled_model(cfg, ClimateMode.SELECTIVE, **kwargs)
        baseline_time = baseline.total_time
        if outage_start is None:
            outage_start = 0.40 * baseline_time
        if outage_duration is None:
            outage_duration = 0.35 * baseline_time

    # Quick down transitions and a cool-off that expires mid-outage (so
    # the first probe happens — and fails — before the restore, and the
    # first post-restore coupling probes successfully).
    health = HealthConfig(failure_threshold=2,
                          cooloff=outage_duration / 2.0)
    retry = RetryPolicy(max_attempts=2, base_delay=1e-3, max_delay=5e-3)

    captured: dict[str, _t.Any] = {}

    def on_start(bed, contexts):
        plan = FaultPlan(bed.nexus.network)
        plan.outage(bed.partition_a, bed.partition_b,
                    start=outage_start, duration=outage_duration,
                    transport="tcp")
        plan.install(bed.sim)
        captured["plan"] = plan
        captured["nexus"] = bed.nexus

    def _run() -> ClimateResult:
        return run_coupled_model(
            cfg, ClimateMode.SELECTIVE, retry_policy=retry, health=health,
            on_start=on_start, **kwargs)

    runs: tuple = ()
    if observe:
        with _obs.collecting() as collected:
            climate = _run()
        runs = tuple(collected)
    else:
        climate = _run()

    nexus = captured["nexus"]
    plan = captured["plan"]
    return ChaosResult(
        climate=climate,
        outage_start=outage_start,
        outage_duration=outage_duration,
        baseline_time=baseline_time,
        health=health_report(nexus),
        fault_log=tuple(plan.log),
        runs=runs,
    )
