"""The coupled model through a mid-run TCP outage (seed 0): the fault
arc, the recovery counters, and the requirement that TCP comes back."""

from __future__ import annotations

import dataclasses
import typing as _t

from ..apps.climate import ChaosResult, run_chaos_climate
from ..util.units import format_time
from . import Artefact, RunOptions
from .record import DIR_HIGHER, DIR_NONE, KIND_COUNT, Metric


@dataclasses.dataclass(frozen=True)
class Chaos:
    """One chaos climate run."""

    run: ChaosResult

    def render(self) -> str:
        run = self.run
        lines = [f"TCP outage at t={format_time(run.outage_start)} for "
                 f"{format_time(run.outage_duration)} "
                 f"(run lasts {format_time(run.climate.total_time)})"]
        lines += [f"  {format_time(when):>10}  {line}"
                  for when, line in run.timeline()]
        lines.append(f"recovery: {run.retries} retries, "
                     f"{run.failovers} failovers, {run.probes} probes")
        return "\n".join(lines)

    def metrics(self) -> _t.Iterator[Metric]:
        """Fault arc and recovery counters."""
        run = self.run
        yield Metric("baseline_time_s", run.baseline_time, unit="s")
        yield Metric("total_time_s", run.climate.total_time, unit="s")
        yield Metric("seconds_per_step", run.climate.seconds_per_step,
                     unit="s")
        yield Metric("outage_start_s", run.outage_start, unit="s",
                     direction=DIR_NONE)
        yield Metric("outage_duration_s", run.outage_duration, unit="s",
                     direction=DIR_NONE)
        yield Metric("retries", run.retries, unit="retries",
                     kind=KIND_COUNT)
        yield Metric("failovers", run.failovers, unit="failovers",
                     kind=KIND_COUNT)
        yield Metric("probes", run.probes, unit="probes", kind=KIND_COUNT)
        yield Metric("health_events", len(run.health.events),
                     unit="events", kind=KIND_COUNT)
        yield Metric("recovered", float(run.recovered), unit="bool",
                     kind=KIND_COUNT, direction=DIR_HIGHER)


def _run(options: RunOptions) -> Chaos:
    return Chaos(run_chaos_climate(seed=0))


def check_chaos_shape(chaos: Chaos) -> None:
    assert chaos.run.recovered, "chaos run did not recover TCP"


ARTEFACT = Artefact("chaos", _run, check_chaos_shape)
