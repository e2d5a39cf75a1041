"""The runner registry: what a fleet worker is allowed to execute.

A :class:`~repro.fleet.pool.FleetTask` names its runner as a string so
the task spec stays declarative.  Resolution accepts two forms:

* a **registered name** (``"load.run_scenario"``) from :data:`RUNNERS`
  — the stable vocabulary the planners in :mod:`repro.fleet.plan` use;
* a **dotted path** (``"package.module:function"``) importable in the
  worker — the escape hatch for tests and one-off experiments.  Spawned
  workers inherit ``sys.path``, so anything importable in the parent is
  importable in the child, but *registrations* made at runtime in the
  parent are not: a spawn child starts from a fresh interpreter, which
  is why the registry is populated at module import time only.
"""

from __future__ import annotations

import dataclasses
import importlib
import time
import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..bench.record import Metric

RUNNERS: dict[str, _t.Callable[..., object]] = {}


def register_runner(name: str):
    """Register ``fn`` under ``name`` (module-import time only)."""
    def wrap(fn: _t.Callable[..., object]):
        RUNNERS[name] = fn
        return fn
    return wrap


def resolve_runner(name: str) -> _t.Callable[..., object]:
    """Look up a registered runner, or import a ``module:callable``."""
    fn = RUNNERS.get(name)
    if fn is not None:
        return fn
    module_name, sep, attr = name.partition(":")
    if not sep or not module_name or not attr:
        raise LookupError(
            f"unknown fleet runner {name!r}: not registered and not a "
            "'module:callable' path")
    module = importlib.import_module(module_name)
    fn = getattr(module, attr, None)
    if not callable(fn):
        raise LookupError(
            f"fleet runner path {name!r} does not name a callable")
    return fn


# -- the built-in runners -----------------------------------------------------

@register_runner("load.run_scenario")
def run_scenario_task(scenario, stream_dir: str | None = None,
                      stream: _t.Mapping[str, object] | None = None):
    """Run one :class:`~repro.load.scenario.LoadScenario`.

    With ``stream_dir``, spans spool to sharded JSONL there (the plan
    hands every task its own subdirectory, so spools never collide);
    ``stream`` carries extra :class:`~repro.obs.stream.StreamConfig`
    fields (policy, seed, rotation limits).  Returns the portable form
    of the :class:`~repro.load.clients.LoadResult`.
    """
    from ..load.clients import run_scenario
    from ..obs.stream import StreamConfig

    config = None
    if stream_dir is not None:
        import os

        os.makedirs(stream_dir, exist_ok=True)
        config = StreamConfig(directory=stream_dir,
                              **dict(stream or {}))
    result = run_scenario(scenario, stream=config)
    return result.portable()


@register_runner("load.capacity_probe")
def run_probe_task(scenario, slo, rate: float):
    """Evaluate one capacity-bisection probe rate.

    Exactly the serial probe — same :func:`run_scenario` execution,
    same SLO evaluation — so a speculatively evaluated rate carries the
    identical verdict the serial search would have computed.
    """
    from ..load.capacity import _probe

    return _probe(scenario, slo, rate)


@register_runner("place.capacity")
def run_place_capacity_task(scenario, slo, low: float, high: float,
                            tolerance: float = 0.05, max_probes: int = 12):
    """Validate one placement candidate by simulated capacity search.

    The payload's ``scenario`` arrives already compiled from a
    :class:`repro.place.Placement` (plain frozen data, so it pickles);
    the worker runs the same deterministic bisection the serial path
    uses and returns the full :class:`~repro.load.capacity.CapacityResult`.
    """
    from ..load.capacity import find_capacity

    return find_capacity(scenario, slo, low=low, high=high,
                         tolerance=tolerance, max_probes=max_probes)


@dataclasses.dataclass(frozen=True)
class BenchArtefactResult:
    """One bench artefact's output, portable across the pool.

    ``metrics`` is what the result's ``metrics()`` yielded — frozen
    plain data; the parent files them into its own record in task-key
    order, so the merged document is independent of completion order.
    """

    name: str
    stdout: str
    wall_s: float
    metrics: tuple["Metric", ...]


@register_runner("bench.artefact")
def run_bench_artefact_task(name: str) -> BenchArtefactResult:
    """Run one ``python -m repro.bench`` artefact in this worker.

    The rendered text travels back as ``stdout`` (the parent replays it
    in selection order) and the artefact's metrics as plain data rather
    than a live :class:`BenchRecord`.
    """
    from ..bench import RunOptions, artefact

    started = time.perf_counter()
    result, text = artefact(name).execute(RunOptions())
    return BenchArtefactResult(
        name=name,
        stdout=text + "\n",
        wall_s=time.perf_counter() - started,
        metrics=tuple(result.metrics()),
    )


__all__ = [
    "BenchArtefactResult",
    "RUNNERS",
    "register_runner",
    "resolve_runner",
    "run_bench_artefact_task",
    "run_place_capacity_task",
    "run_probe_task",
    "run_scenario_task",
]
