"""A scenario grid fanned across a fixed two-worker spawn pool.

Open loop inside every task (the steady scenario at 16 scale factors);
the harness side is a closed loop of 16 tasks over 2 workers, whatever
the host has.  ``run_plan(jobs=2)`` spawns the pool, ships pickled task
specs and results, and ``merge_load_results`` folds them in key order.
The ``jobs=1`` run is the reference: the merged document's digest must
equal it.  The only workload where spawn and import, payload pickling,
queue wait and merge do the work.

``py_calls`` counts this process only (dispatch, unpickling, merge); the
workers' calls are the same work ``reference`` does in-process.
"""

from __future__ import annotations

import pickle

from repro.fleet import ScenarioGrid, merge_load_results, run_plan

from . import Finished, scenarios

WORKERS = 2
FACTORS = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2,
           1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0)


def build(seed, scratch):
    return ScenarioGrid(name="grid", base=scenarios.steady(seed),
                        factors=FACTORS)


def _run(grid, tracer, jobs):
    fleet_run = tracer.call("fleet.run_plan", run_plan, grid, jobs=jobs)
    merged = tracer.call("fleet.merge_load_results", merge_load_results,
                         fleet_run.outcomes, plan=grid.name)

    def finish():
        outcomes = fleet_run.outcomes.values()
        results = tuple(outcome.result for outcome in outcomes)
        payload = (sum(len(task.encode()) for task in grid.tasks())
                   + sum(len(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
                         for result in results))
        return Finished(
            merged,
            layer={
                "fleet.tasks": len(fleet_run.outcomes),
                "fleet.failed_tasks": sum(not o.ok for o in outcomes),
                "fleet.payload_bytes": payload,
                "fleet.merge_s": tracer.seconds("fleet.merge_load_results"),
                "load.offered": sum(r.offered for r in results),
                "load.delivered": sum(r.delivered for r in results),
            },
            remote_results=results if jobs > 1 else ())

    return finish


def run(grid, tracer):
    return _run(grid, tracer, WORKERS)


def reference(grid, tracer):
    return _run(grid, tracer, 1)
