"""The fleet tier: worker-scaling of the scenario-grid fan-out.

Runs one fixed scenario grid at 1, 2, and 4 workers, twice each — a
**cold** call (the warm pool shut down first, so it pays spawn + import)
and a **warm** one straight after — and checks the determinism contract
the hard way: the merged summary document from every call must hash
identically.  Speedup and efficiency compare warm calls (the second
serial call is the baseline, so both sides have their lazy imports
behind them) and are wall-kind metrics (advisory: the record gate
never fails on them); the digest equality is the deterministic gate.

Scaling numbers are only meaningful where the host actually has the
cores: :func:`check_fleet_shape` asserts warm two-worker speedup > 1
when ``cpus >= 2`` and the ≥ 2.5× four-worker floor when ``cpus >= 4``
— on a smaller host the points still record honest values, and the
digest gate still applies in full.
"""

from __future__ import annotations

import dataclasses
import os
import typing as _t

from ..fleet.merge import document_digest, merge_load_results
from ..fleet.plan import ScenarioGrid, run_plan
from ..fleet.pool import shutdown
from ..util.records import ResultTable
from . import Artefact, RunOptions
from .record import DIR_HIGHER, DIR_NONE, KIND_COUNT, KIND_WALL, Metric

#: Worker counts the scaling curve samples.
WORKER_COUNTS = (1, 2, 4)

#: Four-worker speedup floor, asserted only on hosts with >= 4 cpus.
MIN_SPEEDUP_AT_4 = 2.5

#: Grid scale factors: enough independent tasks that four workers stay
#: busy, centred on the steady scenario's nominal load.
GRID_FACTORS = (0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.25)


def host_cpus() -> int:
    """Schedulable cpus for this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-linux
        return os.cpu_count() or 1


@dataclasses.dataclass(frozen=True)
class ScalingPoint:
    """One worker count's measurement: a cold call, then a warm one."""

    workers: int
    cold_wall_s: float
    warm_wall_s: float
    #: Warm serial wall over this width's warm wall.
    speedup: float
    efficiency: float
    #: The merged document's digest after the cold and the warm call.
    digests: tuple[str, str]


@dataclasses.dataclass
class FleetScaling:
    """The whole scaling experiment."""

    points: tuple[ScalingPoint, ...]
    tasks: int
    cpus: int

    @property
    def merge_identical(self) -> bool:
        return len({digest for point in self.points
                    for digest in point.digests}) == 1

    def point(self, workers: int) -> ScalingPoint | None:
        for point in self.points:
            if point.workers == workers:
                return point
        return None

    def render(self) -> str:
        table = ResultTable(
            f"Fleet scaling: {self.tasks}-task scenario grid "
            f"({self.cpus} cpu(s))",
            ["cold s", "warm s", "speedup", "efficiency"])
        for point in self.points:
            table.add(f"{point.workers} worker(s)", point.cold_wall_s,
                      point.warm_wall_s, point.speedup, point.efficiency)
        return table.render(2)

    def metrics(self) -> _t.Iterator[Metric]:
        """Wall seconds, speedup, and efficiency are ``wall``-kind
        (advisory); the grid's merged-digest equality and the task/cpu
        counts are deterministic counts."""
        yield Metric("tasks", self.tasks, unit="tasks", kind=KIND_COUNT)
        yield Metric("cpus", self.cpus, unit="cpus", kind=KIND_COUNT,
                     direction=DIR_NONE)
        yield Metric("merge_identical", float(self.merge_identical),
                     unit="bool", kind=KIND_COUNT, direction=DIR_HIGHER)
        for point in self.points:
            base = f"w{point.workers}"
            yield Metric(f"{base}.cold_wall_s", point.cold_wall_s,
                         unit="s", kind=KIND_WALL)
            yield Metric(f"{base}.warm_wall_s", point.warm_wall_s,
                         unit="s", kind=KIND_WALL)
            yield Metric(f"{base}.speedup", point.speedup, unit="x",
                         kind=KIND_WALL, direction=DIR_HIGHER)
            yield Metric(f"{base}.efficiency", point.efficiency,
                         unit="frac", kind=KIND_WALL, direction=DIR_HIGHER)


def fleet_scaling(options: RunOptions = RunOptions(),
                  workers: _t.Sequence[int] = WORKER_COUNTS
                  ) -> FleetScaling:
    """Run the grid cold then warm at each worker count; serial first
    (the baseline)."""
    from .load import scenarios

    base = scenarios()["steady"]
    grid = ScenarioGrid(name="scale", base=base, factors=GRID_FACTORS)
    points: list[ScalingPoint] = []
    serial_wall: float | None = None
    for count in workers:
        shutdown()
        cold, warm = run_plan(grid, jobs=count), run_plan(grid, jobs=count)
        if serial_wall is None:
            serial_wall = warm.wall_s
        speedup = serial_wall / warm.wall_s if warm.wall_s > 0 else 0.0
        points.append(ScalingPoint(
            workers=count, cold_wall_s=cold.wall_s, warm_wall_s=warm.wall_s,
            speedup=speedup, efficiency=speedup / count,
            digests=tuple(
                document_digest(merge_load_results(run.outcomes,
                                                   plan=grid.name))
                for run in (cold, warm))))
    return FleetScaling(points=tuple(points), tasks=len(grid.tasks()),
                        cpus=host_cpus())


def _load_average() -> str:
    """The host's 1/5/15-minute load averages, now."""
    try:
        return "/".join(f"{load:.2f}" for load in os.getloadavg())
    except (AttributeError, OSError):  # pragma: no cover - non-unix
        return "unavailable"


def check_fleet_shape(scaling: FleetScaling) -> None:
    """Assert the fleet tier's findings.

    1. Determinism: every call, cold or warm, at every worker count
       merged to byte-identical summaries (digest equality) — gated
       unconditionally.
    2. The fleet pays: with two real cpus, a warm two-worker call beats
       the serial one; with four, four workers deliver at least
       :data:`MIN_SPEEDUP_AT_4`.  Skipped (not faked) on smaller hosts.
    """
    assert scaling.merge_identical, (
        "fleet merge is not deterministic across worker counts: "
        + ", ".join(f"jobs={p.workers}: "
                    + "/".join(digest[:12] for digest in p.digests)
                    for p in scaling.points))
    two = scaling.point(2)
    if two is not None and scaling.cpus >= 2:
        # A wall-time ratio: the walls and the host's load say whether a
        # failure is the pool's or another process's.
        assert two.speedup > 1.0, (
            f"warm 2-worker speedup {two.speedup:.2f}x does not beat "
            f"serial on a {scaling.cpus}-cpu host (warm walls: serial "
            f"{scaling.points[0].warm_wall_s:.3f} s, 2 workers "
            f"{two.warm_wall_s:.3f} s; 2-worker cold wall "
            f"{two.cold_wall_s:.3f} s; load average {_load_average()})")
    four = scaling.point(4)
    if four is not None and scaling.cpus >= 4:
        assert four.speedup >= MIN_SPEEDUP_AT_4, (
            f"4-worker speedup {four.speedup:.2f}x is below the "
            f"{MIN_SPEEDUP_AT_4}x floor on a {scaling.cpus}-cpu host")


# Opt-in: the fleet tier times multi-process scaling, which would
# perturb — and be perturbed by — the rest of the suite.
ARTEFACT = Artefact("fleet", fleet_scaling, check_fleet_shape,
                    default=False)
