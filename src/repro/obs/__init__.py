"""repro.obs — end-to-end observability for the Nexus stack.

Three pieces (see :mod:`~repro.obs.spans`, :mod:`~repro.obs.metrics`,
:mod:`~repro.obs.export`):

* a **span tracer** threading a causal id through every RSR's lifecycle
  (issue → marshal → enqueue → wire → poll-detect → dispatch → handler,
  with forwarding and multicast fan-out as linked children);
* a **metrics registry** of counters, gauges, and fixed-bucket
  histograms (per-method latency, per-phase time, poll-hit counts);
* an **exporter**: Chrome trace-event JSON (Perfetto).

On top of those sits the **analysis layer** (:mod:`~repro.obs.timeline`,
:mod:`~repro.obs.graph`, :mod:`~repro.obs.critpath`): sim-time-windowed
counters/histograms, weighted communication-graph extraction, and
per-RSR critical paths — all byte-deterministic and exportable.

Spans and metrics are the recording spine and load with the package;
the exporters, the analysis layer, the span spool and the profiler are
*products*, imported on first access to one of their names, so a run
that never reads its trace never loads them (nor numpy).

Enable per runtime with ``Nexus(observe=True)``, or process-wide for a
scope with::

    import repro.obs as obs

    with obs.collecting() as runs:          # every Nexus created here
        result = dual_pingpong(0, 20)       # traces itself
    obs.export.write_merged_chrome_trace("trace.json", runs)

Everything is deterministic: identical runs produce byte-identical
exports.  With tracing off (the default) the instrumentation costs one
attribute load and branch per site.
"""

from __future__ import annotations

import contextlib
import importlib
import typing as _t

from .metrics import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS_US,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .spans import (
    NEXUS_LANE,
    PHASES,
    MessageTrace,
    Observability,
    Span,
    TraceIncompleteError,
)

#: Product submodule -> the names re-exported from it.  Each is imported
#: on first attribute access (PEP 562) and cached in this module.
_PRODUCTS = {
    "critpath": ("CriticalPath", "CritpathBuilder", "extract_critical_paths",
                 "phase_attribution"),
    "export": (),
    "graph": ("CommGraph", "GraphBuilder", "dot_graph", "PartitionCosts",
              "evaluate_partition", "extract_graph"),
    "perf": ("PerfProfile",),
    "stream": ("SpanSpool", "StreamConfig", "StreamFold", "fold_stream",
               "iter_records", "parse_policy", "read_manifest"),
    "timeline": ("Timeline", "timeline_document"),
}
_LAZY = {name: module for module, names in _PRODUCTS.items()
         for name in (module, *names)}


def __getattr__(name: str) -> _t.Any:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


if _t.TYPE_CHECKING:  # pragma: no cover
    from ..core.runtime import Nexus

#: Process-wide default for ``Nexus(observe=None)``; true only inside
#: :func:`collecting`.
_default_observe = False
#: Active collector of (Observability, Nexus) pairs, or None.
_collector: list[tuple[Observability, "Nexus | None"]] | None = None
#: Active watcher of Nexus instances (tracing left untouched), or None.
_watcher: list["Nexus"] | None = None


def default_observe() -> bool:
    return _default_observe


@contextlib.contextmanager
def collecting() -> _t.Iterator[list[tuple[Observability, "Nexus | None"]]]:
    """Observe every Nexus created in this scope and collect its traces.

    Yields a list that accumulates ``(obs, nexus)`` pairs as runtimes
    are constructed; pass it to
    :func:`~repro.obs.export.write_merged_chrome_trace` afterwards.
    Restores the previous default on exit (exception-safe, reentrant).
    """
    global _collector, _default_observe
    saved_collector, saved_default = _collector, _default_observe
    collected: list[tuple[Observability, "Nexus | None"]] = []
    _collector = collected
    _default_observe = True
    try:
        yield collected
    finally:
        _collector, _default_observe = saved_collector, saved_default


@contextlib.contextmanager
def watching_runtimes() -> _t.Iterator[list["Nexus"]]:
    """Collect every Nexus created in this scope *without* enabling tracing.

    Unlike :func:`collecting`, the ambient observe default is left alone,
    so the watched code runs exactly as it would unobserved.  This is how
    ``perfbench`` and the perf smoke tests count simulator events per run
    (``nexus.sim.events_processed``) without tracing overhead distorting
    the very wall time being measured.
    """
    global _watcher
    saved = _watcher
    watched: list["Nexus"] = []
    _watcher = watched
    try:
        yield watched
    finally:
        _watcher = saved


def note_runtime(obs: Observability, nexus: "Nexus | None") -> None:
    """Called by Nexus construction; registers enabled runtimes with the
    active :func:`collecting` scope and/or :func:`watching_runtimes`
    scope, if any."""
    if _collector is not None and obs.enabled:
        _collector.append((obs, nexus))
    if _watcher is not None and nexus is not None:
        _watcher.append(nexus)


__all__ = [
    "COUNT_BUCKETS",
    "CommGraph",
    "Counter",
    "CriticalPath",
    "CritpathBuilder",
    "Gauge",
    "GraphBuilder",
    "Histogram",
    "LATENCY_BUCKETS_US",
    "MessageTrace",
    "MetricsRegistry",
    "NEXUS_LANE",
    "Observability",
    "PHASES",
    "PerfProfile",
    "Span",
    "SpanSpool",
    "StreamConfig",
    "StreamFold",
    "Timeline",
    "TraceIncompleteError",
    "collecting",
    "default_observe",
    "dot_graph",
    "PartitionCosts",
    "evaluate_partition",
    "export",
    "extract_critical_paths",
    "extract_graph",
    "fold_stream",
    "iter_records",
    "note_runtime",
    "parse_policy",
    "read_manifest",
    "phase_attribution",
    "timeline_document",
    "watching_runtimes",
]
