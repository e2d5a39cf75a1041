"""Declarative fleet plans: the fan-out shapes the serial loops had.

A plan is frozen data describing *which* independent simulations to
run; :func:`run_plan` turns it into :class:`~repro.fleet.pool.FleetTask`
specs and executes them serially (``jobs=1``) or across the process's
warm :class:`~repro.fleet.pool.FleetPool`.  Three shapes cover the repo's
existing serial loops:

* :class:`ScenarioGrid` — one base :class:`LoadScenario` swept across
  offered rates (``at_rate``) or scale factors (``scaled``), the SLO
  sweep / capacity-exploration shape;
* :class:`SeedReplication` — the same scenario replicated across seeds
  minted from :func:`repro.simnet.random.derive` substreams keyed by
  the task key, so replicas never share draws and adding a replica
  never perturbs the others;
* :class:`BenchFanout` — the ``python -m repro.bench --jobs N``
  artefact list.

Task keys are the determinism anchor: every key encodes its position
in the plan (never a timestamp or worker id), merge order is key order,
and per-task seeds and spool directories derive from the key — so the
same plan yields byte-identical merged outputs at any ``jobs``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import time
import typing as _t

from ..simnet.random import derive
from .pool import FleetPool, FleetTask, TaskOutcome, run_serial, shared_pool

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..load.scenario import LoadScenario

#: Task-key characters safe for filesystem paths and record slugs.
_KEY_SAFE = "abcdefghijklmnopqrstuvwxyz" \
            "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._+=-"


def key_slug(key: str) -> str:
    """A filesystem-safe rendering of a task key (for spool subdirs)."""
    return "".join(ch if ch in _KEY_SAFE else "-" for ch in key)


def derive_task_seed(seed: int, key: str) -> int:
    """Mint a 63-bit scenario seed from a root seed and a task key.

    Routed through :func:`repro.simnet.random.derive` under the
    ``"fleet"`` namespace, so fleet replica streams can never collide
    with the simulation's own named substreams, and two distinct task
    keys get independent entropy by construction.
    """
    state = derive(seed, "fleet", key).generate_state(2, dtype="uint64")
    return int(state[0]) & (2 ** 63 - 1)


@dataclasses.dataclass(frozen=True)
class ScenarioGrid:
    """Sweep one scenario across offered rates and/or scale factors."""

    name: str
    base: "LoadScenario"
    rates: tuple[float, ...] = ()
    factors: tuple[float, ...] = ()
    #: Spool each task's spans under ``<stream_root>/<key slug>``.
    stream_root: str | None = None

    def tasks(self) -> tuple[FleetTask, ...]:
        specs: list[FleetTask] = []
        points: list[tuple[str, "LoadScenario"]] = []
        for rate in self.rates:
            points.append((f"{self.name}/rate-{rate:g}",
                           self.base.at_rate(rate)))
        for factor in self.factors:
            points.append((f"{self.name}/x{factor:g}",
                           self.base.scaled(factor)))
        for key, scenario in points:
            payload: dict[str, object] = {"scenario": scenario}
            if self.stream_root is not None:
                payload["stream_dir"] = os.path.join(
                    self.stream_root, key_slug(key))
            specs.append(FleetTask(key=key, runner="load.run_scenario",
                                   payload=payload))
        return tuple(specs)


@dataclasses.dataclass(frozen=True)
class SeedReplication:
    """Replicate one scenario across derived seed substreams."""

    name: str
    base: "LoadScenario"
    replicas: int
    #: Root seed the replica seeds derive from (defaults to the base
    #: scenario's own seed).
    seed: int | None = None
    stream_root: str | None = None

    def tasks(self) -> tuple[FleetTask, ...]:
        root = self.base.seed if self.seed is None else self.seed
        specs: list[FleetTask] = []
        for index in range(self.replicas):
            key = f"{self.name}/seed-{index:03d}"
            scenario = dataclasses.replace(
                self.base, seed=derive_task_seed(root, key))
            payload: dict[str, object] = {"scenario": scenario}
            if self.stream_root is not None:
                payload["stream_dir"] = os.path.join(
                    self.stream_root, key_slug(key))
            specs.append(FleetTask(key=key, runner="load.run_scenario",
                                   payload=payload))
        return tuple(specs)


@dataclasses.dataclass(frozen=True)
class BenchFanout:
    """Run bench artefacts concurrently (``python -m repro.bench --jobs``).

    Keys are ``bench/<nn>-<name>`` so key order equals selection order —
    the merged record and the replayed stdout follow the command line,
    not completion order.
    """

    artefacts: tuple[str, ...]

    def tasks(self) -> tuple[FleetTask, ...]:
        return tuple(
            FleetTask(key=f"bench/{index:02d}-{name}",
                      runner="bench.artefact", payload={"name": name})
            for index, name in enumerate(self.artefacts))


FleetPlan = _t.Union[ScenarioGrid, SeedReplication, BenchFanout]


@dataclasses.dataclass(frozen=True)
class FleetRun:
    """One executed plan: outcomes in task-key order, plus wall time."""

    plan: FleetPlan
    #: The width that actually ran: 1 for in-process, else the pool's.
    jobs: int
    outcomes: dict[str, TaskOutcome]
    wall_s: float


def run_plan(plan: FleetPlan, *, jobs: int = 1,
             pool: FleetPool | None = None) -> FleetRun:
    """Execute a plan at the given parallelism.

    ``jobs=1`` runs in-process (no spawn cost, bit-identical semantics);
    ``jobs>1`` borrows the process-wide warm pool at that width — the
    first call pays spawn + import, later calls do not, and
    :func:`repro.fleet.shutdown` (or interpreter exit) ends it.  A
    ``pool`` the caller passes is used instead, whatever ``jobs`` says,
    and left open.  Outcomes are key-ordered either way.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    tasks = plan.tasks()
    started = time.perf_counter()
    if pool is None and jobs == 1:
        outcomes, width = run_serial(tasks), 1
    else:
        with (shared_pool(jobs) if pool is None
              else contextlib.nullcontext(pool)) as pool:
            outcomes, width = pool.run(tasks), pool.workers
    return FleetRun(plan=plan, jobs=width, outcomes=outcomes,
                    wall_s=time.perf_counter() - started)


__all__ = [
    "BenchFanout",
    "FleetPlan",
    "FleetRun",
    "ScenarioGrid",
    "SeedReplication",
    "derive_task_seed",
    "key_slug",
    "run_plan",
]
