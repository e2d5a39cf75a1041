"""Process-parallel simulation fan-out with deterministic merge.

The single-core simulation kernel runs one scenario at a time; this
package fans *independent* scenarios across spawned worker processes —
the partition-the-work-across-ranks idiom of the source paper's §4
multi-machine decomposition, applied to the reproduction's own
experiment loops — while keeping every merged output byte-identical to
the serial run.

Layers:

* :mod:`repro.fleet.pool` — the spawn pool: declarative task specs in,
  key-tagged results (or structured :class:`FleetTaskError`\\ s with
  remote tracebacks) out; crashes and hangs are reaped, never hung on.
  One warm pool per process serves every in-process caller;
  :func:`shutdown` ends it early.
* :mod:`repro.fleet.tasks` — the runner registry workers resolve task
  specs against (scenario runs, capacity probes, bench artefacts).
* :mod:`repro.fleet.plan` — declarative plans for the three fan-out
  shapes: scenario grids, seed replication, bench-artefact fan-out.
* :mod:`repro.fleet.merge` — task-key-ordered merge of bench records,
  load results, and stream manifests.

``python -m repro.fleet`` is the sweep CLI; ``python -m repro.bench
--jobs N`` rides the same pool.  The speculative parallel capacity
search lives in :func:`repro.load.capacity.find_capacity`
(``parallel=k``).
"""

from .merge import (
    document_digest,
    merge_bench_outcomes,
    merge_load_results,
    ordered_results,
    require_ok,
)
from .plan import (
    BenchFanout,
    FleetPlan,
    FleetRun,
    ScenarioGrid,
    SeedReplication,
    derive_task_seed,
    key_slug,
    run_plan,
)
from .pool import (
    FleetPool,
    FleetSpecError,
    FleetTask,
    FleetTaskError,
    TaskOutcome,
    run_serial,
    shutdown,
)
from .tasks import RUNNERS, register_runner, resolve_runner

__all__ = [
    "BenchFanout",
    "FleetPlan",
    "FleetPool",
    "FleetRun",
    "FleetSpecError",
    "FleetTask",
    "FleetTaskError",
    "RUNNERS",
    "ScenarioGrid",
    "SeedReplication",
    "TaskOutcome",
    "derive_task_seed",
    "document_digest",
    "key_slug",
    "merge_bench_outcomes",
    "merge_load_results",
    "ordered_results",
    "register_runner",
    "require_ok",
    "resolve_runner",
    "run_plan",
    "run_serial",
    "shutdown",
]
