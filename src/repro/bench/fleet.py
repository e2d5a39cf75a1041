"""The fleet tier: worker-scaling of the scenario-grid fan-out.

Runs one fixed scenario grid at 1, 2, and 4 workers, measures wall
time per run, and checks the determinism contract the hard way: the
merged summary document from every worker count must hash identically.
Speedup and efficiency are wall-kind metrics (advisory, band-gated via
the history ledger); the digest equality is the deterministic gate.

Scaling numbers are only meaningful where the host actually has the
cores: :func:`check_fleet_shape` asserts the ≥ 2.5× four-worker speedup
only when ``cpus >= 4`` — on a single-core runner the points still
record honest (≈ 1×, spawn-overhead-dominated) values, and the digest
gate still applies in full.
"""

from __future__ import annotations

import dataclasses
import os
import typing as _t

from ..fleet.merge import document_digest, merge_load_results
from ..fleet.plan import ScenarioGrid, run_plan
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
    """One worker count's measurement."""

    workers: int
    wall_s: float
    speedup: float
    efficiency: float
    digest: str


@dataclasses.dataclass
class FleetScaling:
    """The whole scaling experiment."""

    points: tuple[ScalingPoint, ...]
    tasks: int
    cpus: int

    @property
    def merge_identical(self) -> bool:
        return len({point.digest for point in self.points}) == 1

    def point(self, workers: int) -> ScalingPoint | None:
        for point in self.points:
            if point.workers == workers:
                return point
        return None

    def render(self) -> str:
        table = ResultTable(
            f"Fleet scaling: {self.tasks}-task scenario grid "
            f"({self.cpus} cpu(s))",
            ["wall s", "speedup", "efficiency"])
        for point in self.points:
            table.add(f"{point.workers} worker(s)", point.wall_s,
                      point.speedup, point.efficiency)
        return table.render(2)

    def metrics(self) -> _t.Iterator[Metric]:
        """Wall seconds, speedup, and efficiency are ``wall``-kind
        (advisory, band-gated via history); the grid's merged-digest
        equality and the task/cpu counts are deterministic counts."""
        yield Metric("tasks", self.tasks, unit="tasks", kind=KIND_COUNT)
        yield Metric("cpus", self.cpus, unit="cpus", kind=KIND_COUNT,
                     direction=DIR_NONE)
        yield Metric("merge_identical", float(self.merge_identical),
                     unit="bool", kind=KIND_COUNT, direction=DIR_HIGHER)
        for point in self.points:
            base = f"workers{point.workers}"
            yield Metric(f"{base}.wall_s", point.wall_s, unit="s",
                         kind=KIND_WALL)
            yield Metric(f"{base}.speedup", point.speedup, unit="x",
                         kind=KIND_WALL, direction=DIR_HIGHER)
            yield Metric(f"{base}.efficiency", point.efficiency,
                         unit="frac", kind=KIND_WALL, direction=DIR_HIGHER)


def fleet_scaling(options: RunOptions = RunOptions(),
                  workers: _t.Sequence[int] = WORKER_COUNTS
                  ) -> FleetScaling:
    """Run the grid at each worker count; serial first (the baseline)."""
    from .load import scenarios

    base = scenarios(quick=options.quick)["steady"]
    grid = ScenarioGrid(name="scale", base=base, factors=GRID_FACTORS)
    points: list[ScalingPoint] = []
    serial_wall: float | None = None
    for count in workers:
        run = run_plan(grid, jobs=count)
        digest = document_digest(
            merge_load_results(run.outcomes, plan=grid.name))
        if serial_wall is None:
            serial_wall = run.wall_s
        speedup = serial_wall / run.wall_s if run.wall_s > 0 else 0.0
        points.append(ScalingPoint(
            workers=count, wall_s=run.wall_s, speedup=speedup,
            efficiency=speedup / count, digest=digest))
    return FleetScaling(points=tuple(points), tasks=len(grid.tasks()),
                        cpus=host_cpus())


def check_fleet_shape(scaling: FleetScaling) -> None:
    """Assert the fleet tier's findings.

    1. Determinism: every worker count merged to byte-identical
       summaries (digest equality) — gated unconditionally.
    2. Scaling: with four real cpus, four workers deliver at least
       :data:`MIN_SPEEDUP_AT_4` on the grid.  Skipped (not faked) on
       smaller hosts, where the honest measurement is ≈ 1×.
    """
    assert scaling.merge_identical, (
        "fleet merge is not deterministic across worker counts: "
        + ", ".join(f"jobs={p.workers}: {p.digest[:12]}"
                    for p in scaling.points))
    four = scaling.point(4)
    if four is not None and scaling.cpus >= 4:
        assert four.speedup >= MIN_SPEEDUP_AT_4, (
            f"4-worker speedup {four.speedup:.2f}x is below the "
            f"{MIN_SPEEDUP_AT_4}x floor on a {scaling.cpus}-cpu host")


# Opt-in: the fleet tier times multi-process scaling, which would
# perturb — and be perturbed by — the rest of the suite.  The digest
# gate is size-independent, so the check holds under --quick.
ARTEFACT = Artefact("fleet", fleet_scaling, check_fleet_shape,
                    check_quick=True, default=False)
