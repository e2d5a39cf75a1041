"""Deterministic merge: completion order in, task-key order out.

Workers finish in whatever order the scheduler produces; everything a
fleet run publishes — merged bench records, load summaries, stream
manifests — is ordered by **task key** instead, so ``--jobs 1`` and
``--jobs 8`` emit byte-identical documents.  The rules:

* merge inputs are keyed outcomes; iteration is always ``sorted(keys)``;
* merged documents are sorted-key JSON with no timestamps, worker ids,
  or absolute paths (spool directories appear as key slugs only);
* a failed task never merges silently: :func:`require_ok` raises the
  first :class:`~repro.fleet.pool.FleetTaskError` in key order, with
  its remote traceback attached.
"""

from __future__ import annotations

import hashlib
import typing as _t

from ..util.document import DocumentError, Schema, dumps
from .pool import FleetTaskError, TaskOutcome

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..bench.record import BenchRecord
    from ..load.clients import LoadResult

#: Merged load-summary document identity.
LOAD_SUMMARY_SCHEMA = "repro.fleet.load_summary"
LOAD_SUMMARY_SCHEMA_VERSION = 1


def require_ok(outcomes: _t.Mapping[str, TaskOutcome]) -> None:
    """Raise the first failed outcome's error, in task-key order."""
    for key in sorted(outcomes):
        error = outcomes[key].error
        if error is not None:
            raise error


def ordered_results(outcomes: _t.Mapping[str, TaskOutcome]
                    ) -> dict[str, object]:
    """Key-ordered ``{key: result}``; every outcome must be ok."""
    require_ok(outcomes)
    return {key: outcomes[key].result for key in sorted(outcomes)}


# -- load results -------------------------------------------------------------

def load_result_summary(result: "LoadResult") -> dict[str, object]:
    """One task's deterministic scalar summary.

    Spool paths are dropped (they differ between output roots); the
    spool's content identity lives in the merged stream manifest, not
    here.
    """
    summary: dict[str, object] = {
        "scenario": result.scenario.name,
        "seed": result.scenario.seed,
        "duration_s": result.scenario.duration,
        "offered": result.offered,
        "delivered": result.delivered,
        "offered_rate": result.offered_rate,
        "delivered_rate": result.delivered_rate,
        "p50_us": result.quantile_us(0.5),
        "p99_us": result.quantile_us(0.99),
        "retries": result.retries,
        "failovers": result.failovers,
        "messages_dropped": result.messages_dropped,
        "bytes_dropped": result.bytes_dropped,
        "sim_events": result.sim_events,
        "fleets": {name: {"offered": fleet.offered,
                          "delivered": fleet.delivered,
                          "acked": fleet.acked,
                          "send_failures": fleet.send_failures}
                   for name, fleet in sorted(result.fleets.items())},
    }
    if result.stream is not None:
        summary["stream"] = {
            name: value for name, value in sorted(result.stream.items())
            if name != "directory"
        }
    return summary


def merge_load_results(outcomes: _t.Mapping[str, TaskOutcome], *,
                       plan: str = "adhoc") -> dict[str, object]:
    """The merged fleet document for a scenario/seed plan.

    The width it ran at is deliberately **not** recorded — the document
    must be a pure function of the plan, never of how it was executed.
    """
    results = _t.cast("dict[str, LoadResult]", ordered_results(outcomes))
    tasks = {key: load_result_summary(result)
             for key, result in results.items()}
    return {
        "schema": LOAD_SUMMARY_SCHEMA,
        "schema_version": LOAD_SUMMARY_SCHEMA_VERSION,
        "plan": plan,
        "tasks": tasks,
        "totals": {
            "tasks": len(tasks),
            "offered": sum(r.offered for r in results.values()),
            "delivered": sum(r.delivered for r in results.values()),
            "retries": sum(r.retries for r in results.values()),
            "messages_dropped": sum(r.messages_dropped
                                    for r in results.values()),
            "sim_events": sum(r.sim_events for r in results.values()),
        },
    }


# -- bench records ------------------------------------------------------------

def merge_bench_outcomes(record: "BenchRecord",
                         outcomes: _t.Mapping[str, TaskOutcome]
                         ) -> list:
    """File every bench artefact's metrics into ``record``, key-ordered.

    Returns the :class:`~repro.fleet.tasks.BenchArtefactResult` list in
    key order so the caller can replay captured stdout and wall times.
    Because :meth:`BenchRecord.to_document` sorts artefacts and metric
    names, filing in key order (or any order — the document is
    order-free) reproduces the serial run's bytes exactly; key order is
    still used so duplicate-metric errors surface deterministically.
    """
    require_ok(outcomes)
    merged = []
    for key in sorted(outcomes):
        artefact = outcomes[key].result
        record.extend(artefact.name, artefact.metrics)
        merged.append(artefact)
    return merged


# -- the load-summary document ------------------------------------------------

def document_digest(document: _t.Mapping[str, object]) -> str:
    """sha256 of the written bytes (CI's ``cmp``, as a string)."""
    return hashlib.sha256(
        dumps(document, indent=1).encode("utf-8")).hexdigest()


def _validate(document: _t.Mapping[str, object],
              path: str | None = None) -> dict[str, object]:
    """Totals restate the task summaries; no task names a directory."""
    tasks = document.get("tasks")
    totals = document.get("totals")
    if not isinstance(tasks, dict) or not isinstance(totals, dict):
        raise DocumentError("tasks/totals sections missing")
    if totals.get("tasks") != len(tasks):
        raise DocumentError(f"totals.tasks is {totals.get('tasks')!r}, "
                            f"document holds {len(tasks)} tasks")
    for key, task in tasks.items():
        if not isinstance(task, dict):
            raise DocumentError(f"task {key!r} is not an object")
        stream = task.get("stream")
        if "directory" in task or (isinstance(stream, dict)
                                   and "directory" in stream):
            raise DocumentError(f"task {key!r} records a spool directory")
    for name, value in totals.items():
        summed = sum(task.get(name, 0) for task in tasks.values())
        if name != "tasks" and value != summed:
            raise DocumentError(
                f"totals.{name} is {value!r}, tasks sum to {summed}")
    return {"plan": document.get("plan"), **totals}


DOCUMENT = Schema(LOAD_SUMMARY_SCHEMA, LOAD_SUMMARY_SCHEMA_VERSION,
                  _validate, "fleet load summary")


__all__ = [
    "DOCUMENT",
    "FleetTaskError",
    "LOAD_SUMMARY_SCHEMA",
    "LOAD_SUMMARY_SCHEMA_VERSION",
    "document_digest",
    "load_result_summary",
    "merge_bench_outcomes",
    "merge_load_results",
    "ordered_results",
    "require_ok",
]
