"""Trace exporters: Chrome trace-event JSON and ASCII renderings.

:func:`merged_chrome_trace` builds the one Chrome trace-event document
(what ``--trace`` writes), one pid block per collected run.  It loads
directly in Perfetto (ui.perfetto.dev) or ``chrome://tracing``: each
simulation context renders as a *process*, each transport (plus the
``nexus`` dispatch lane) as a *thread*, and each lifecycle span as a
complete ("X") event whose ``args`` carry the causal RSR id and parent
span id.  The same log also renders as an ASCII timeline for terminals
(:mod:`repro.util.ascii_chart`'s conventions).  Both draw the whole
in-memory log in span-id order, which is no per-RSR fold, so they read
``obs.spans`` rather than the sink's RSR groups.  Spans one per line
are the spool's shard records (:mod:`repro.obs.stream`).

Every export is deterministic: ids come from per-run counters, context
ids are renumbered by first appearance, and JSON is serialised with
sorted keys — identical runs produce byte-identical artefacts.
"""

from __future__ import annotations

import typing as _t

from ..util.ascii_chart import GLYPHS, render_chart
from ..util.document import DocumentError, Schema, write
from ..util.records import Series
from .metrics import Histogram
from .spans import NEXUS_LANE, PHASES, Observability, Span

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..core.runtime import Nexus

#: One glyph per phase for the ASCII timeline (index-aligned to PHASES).
PHASE_GLYPHS: dict[str, str] = dict(zip(PHASES, "im=~?fdhrxp"))


def _context_order(spans: _t.Sequence[Span]) -> dict[int, int]:
    """Renumber context ids densely by first appearance in the span log.

    Context ids are process-global, so a second identical run inside one
    process sees different raw ids; renumbering restores byte-identical
    exports for identical workloads.
    """
    order: dict[int, int] = {}
    for span in spans:
        if span.ctx not in order:
            order[span.ctx] = len(order) + 1
    return order


def _lane_order(spans: _t.Sequence[Span]) -> dict[tuple[int, str], int]:
    """Stable thread ids: nexus lane first, then transports by name."""
    lanes_per_ctx: dict[int, set[str]] = {}
    for span in spans:
        lanes_per_ctx.setdefault(span.ctx, set()).add(span.lane)
    tids: dict[tuple[int, str], int] = {}
    for ctx, lanes in lanes_per_ctx.items():
        ordered = ([NEXUS_LANE] if NEXUS_LANE in lanes else []) + sorted(
            lane for lane in lanes if lane != NEXUS_LANE)
        for index, lane in enumerate(ordered, start=1):
            tids[(ctx, lane)] = index
    return tids


def chrome_trace_events(obs: Observability, *, pid_base: int = 0,
                        context_names: _t.Mapping[int, str] | None = None
                        ) -> list[dict[str, object]]:
    """The ``traceEvents`` list for one runtime's in-memory span log."""
    return _trace_events(obs.spans, pid_base, context_names)


def _trace_events(spans: _t.Sequence[Span], pid_base: int,
                  context_names: _t.Mapping[int, str] | None
                  ) -> list[dict[str, object]]:
    """:func:`chrome_trace_events` over ``spans``, read once per runtime
    (``obs.spans`` sorts the whole log on every read)."""
    ctx_order = _context_order(spans)
    lane_tids = _lane_order(spans)
    events: list[dict[str, object]] = []

    for raw_ctx in ctx_order:
        pid = pid_base + ctx_order[raw_ctx]
        name = (context_names or {}).get(raw_ctx, f"context {ctx_order[raw_ctx]}")
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "tid": 0, "args": {"name": name}})
    for (raw_ctx, lane), tid in sorted(
            lane_tids.items(),
            key=lambda item: (ctx_order[item[0][0]], item[1])):
        events.append({"ph": "M", "name": "thread_name",
                       "pid": pid_base + ctx_order[raw_ctx], "tid": tid,
                       "args": {"name": lane}})

    for span in spans:
        end = span.end if span.end is not None else span.start
        args: dict[str, object] = {"rsr": span.rsr, "span": span.id}
        if span.parent is not None:
            args["parent"] = span.parent
        if span.end is None:
            args["incomplete"] = True
        if span.attrs:
            args.update(span.attrs)
        events.append({
            "ph": "X",
            "name": span.phase,
            "cat": span.lane,
            "pid": pid_base + ctx_order[span.ctx],
            "tid": lane_tids[(span.ctx, span.lane)],
            "ts": span.start * 1e6,
            "dur": (end - span.start) * 1e6,
            "args": args,
        })
    return events


def merged_chrome_trace(
        runs: _t.Sequence[tuple[Observability, "Nexus | None"]]
        ) -> dict[str, object]:
    """Several runtimes' spans + metrics as one Chrome trace document.

    Each run's in-memory log, in span-id order (a spooled run gives its
    open spans only), gets a disjoint pid block so Perfetto shows the
    sweep points side by side; metrics nest under per-run keys.  The
    extra top-level ``metrics`` / ``otherData`` keys are ignored by
    Perfetto but make the artefact self-describing (per-method latency
    histograms ride along with the spans).
    """
    events: list[dict[str, object]] = []
    metrics: dict[str, object] = {}
    spans = dropped = started = finished = 0
    for index, (obs, nexus) in enumerate(runs):
        names = None
        if nexus is not None:
            names = {cid: f"run{index}:{ctx.name}"
                     for cid, ctx in nexus.contexts.items()}
        run_spans = obs.spans
        events.extend(_trace_events(run_spans, index * 1000, names))
        metrics[f"run{index}"] = obs.metrics.snapshot()
        spans += len(run_spans)
        dropped += obs.dropped_spans
        started += obs.rsrs_started
        finished += obs.rsrs_finished
    return {
        "displayTimeUnit": "ms",
        "traceEvents": events,
        "metrics": metrics,
        "otherData": {"runs": len(runs), "rsrs_started": started,
                      "rsrs_finished": finished, "spans": spans,
                      "dropped_spans": dropped},
    }


def write_merged_chrome_trace(
        path: str,
        runs: _t.Sequence[tuple[Observability, "Nexus | None"]]) -> None:
    write(path, merged_chrome_trace(runs))


#: Phases at least one traced RSR must exhibit.
REQUIRED_PHASES = ("marshal", "wire", "poll_detect", "dispatch")


def _validate(document: object,
              path: str | None = None) -> dict[str, object]:
    """The subset of the trace-event format Perfetto relies on, plus
    this repo's guarantees: span events carry causal ``args.rsr`` ids,
    one RSR shows every phase of :data:`REQUIRED_PHASES`, and the
    embedded per-method latency histograms sum to their counts.  An
    export that declares itself empty (``otherData.spans == 0``) is
    valid with no events and no histograms."""
    if not isinstance(document, dict):
        raise DocumentError("top level must be an object, got "
                            f"{type(document).__name__}")
    events = document.get("traceEvents")
    if not isinstance(events, list):
        raise DocumentError("traceEvents must be a list")
    if not events:
        # Valid only for an empty-by-construction export (zero collected
        # runs / zero spans): the document must say so itself.
        other = document.get("otherData")
        if not isinstance(other, dict) or other.get("spans") != 0:
            raise DocumentError("traceEvents empty but otherData does "
                                "not declare zero spans")
        if not isinstance(document.get("metrics"), dict):
            raise DocumentError("metrics section missing")
        return {"events": 0, "span_events": 0, "rsrs": 0,
                "full_lifecycles": 0, "latency_histograms": 0}

    phases_by_rsr: dict[tuple[object, object], set[str]] = {}
    span_events = 0
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise DocumentError(f"traceEvents[{index}] is not an object")
        for field in ("ph", "name", "pid", "tid"):
            if field not in event:
                raise DocumentError(f"traceEvents[{index}] missing {field!r}")
        if event["ph"] == "M":
            continue
        if event["ph"] != "X":
            raise DocumentError(
                f"traceEvents[{index}] has unexpected ph={event['ph']!r}")
        for field in ("ts", "dur"):
            if not isinstance(event.get(field), (int, float)):
                raise DocumentError(
                    f"traceEvents[{index}].{field} must be numeric")
        if _t.cast(float, event["dur"]) < 0:
            raise DocumentError(f"traceEvents[{index}] has negative duration")
        args = event.get("args")
        if not isinstance(args, dict) or "rsr" not in args:
            raise DocumentError(
                f"traceEvents[{index}] span lacks args.rsr causal id")
        span_events += 1
        # RSR ids are unique within a pid block (one block per run).
        run_block = _t.cast(int, event["pid"]) // 1000
        phases_by_rsr.setdefault((run_block, args["rsr"]), set()).add(
            _t.cast(str, event["name"]))

    if span_events == 0:
        raise DocumentError("no span ('X') events present")
    full_lifecycles = sum(
        1 for phases in phases_by_rsr.values()
        if all(phase in phases for phase in REQUIRED_PHASES))
    if full_lifecycles == 0:
        raise DocumentError(
            f"no RSR carries all required phases {REQUIRED_PHASES}")

    metrics = document.get("metrics")
    if not isinstance(metrics, dict):
        raise DocumentError("metrics section missing")
    flat: list[_t.Mapping[str, object]] = []
    stack: list[object] = [metrics]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            if "rsr_latency_us" in node:
                flat.extend(_t.cast(list, node["rsr_latency_us"]))
            else:
                stack.extend(node.values())
    if not flat:
        raise DocumentError("metrics contain no rsr_latency_us histograms")
    for snapshot in flat:
        counts = _t.cast(list, snapshot["counts"])
        if sum(counts) != snapshot["count"]:
            raise DocumentError(
                "latency histogram bucket counts do not sum to count")
        if "method" not in _t.cast(dict, snapshot["labels"]):
            raise DocumentError("latency histogram lacks a method label")

    return {
        "events": len(events),
        "span_events": span_events,
        "rsrs": len(phases_by_rsr),
        "full_lifecycles": full_lifecycles,
        "latency_histograms": len(flat),
    }


# -- terminal renderings -----------------------------------------------------

def ascii_timeline(obs: Observability, *, width: int = 72,
                   max_lanes: int = 24,
                   context_names: _t.Mapping[int, str] | None = None) -> str:
    """Span occupancy per (context, lane) row of the in-memory log over
    virtual time.

    Each cell shows the phase glyph of the span covering that instant
    (later spans win ties); a legend maps glyphs back to phases.  This
    is the terminal sibling of the Perfetto view — enough to eyeball
    where an RSR's time went without leaving the shell.
    """
    spans = obs.spans
    closed = [s for s in spans if s.end is not None]
    if not closed:
        return "(no closed spans)"
    t_lo = min(s.start for s in closed)
    t_hi = max(_t.cast(float, s.end) for s in closed)
    span_width = max(t_hi - t_lo, 1e-12)

    ctx_order = _context_order(spans)
    lane_tids = _lane_order(spans)
    rows: dict[tuple[int, int], list[str]] = {}
    row_spans: dict[tuple[int, int], int] = {}
    for span in closed:
        key = (ctx_order[span.ctx], lane_tids[(span.ctx, span.lane)])
        row = rows.get(key)
        if row is None:
            if len(rows) >= max_lanes:
                continue
            row = [" "] * width
            rows[key] = row
        lo = int((span.start - t_lo) / span_width * (width - 1))
        hi = int((_t.cast(float, span.end) - t_lo) / span_width * (width - 1))
        glyph = PHASE_GLYPHS.get(span.phase, "?")
        for cell in range(lo, hi + 1):
            row[cell] = glyph
        row_spans[key] = row_spans.get(key, 0) + 1

    labels = {}
    for span in closed:
        key = (ctx_order[span.ctx], lane_tids[(span.ctx, span.lane)])
        if key in rows and key not in labels:
            name = (context_names or {}).get(span.ctx, f"ctx{key[0]}")
            labels[key] = f"{name}/{span.lane}"
    label_width = max(len(label) for label in labels.values())

    lines = [f"timeline t=[{t_lo:.6g}s .. {t_hi:.6g}s] "
             f"({len(closed)} spans)"]
    for key in sorted(rows):
        lines.append(f"{labels[key]:>{label_width}} |{''.join(rows[key])}| "
                     f"{row_spans[key]}")
    legend = "  ".join(f"{PHASE_GLYPHS[p]}={p}" for p in PHASES)
    lines.append(" " * label_width + "  " + legend)
    skipped = len(lane_tids) - len(rows)
    if skipped > 0:
        lines.append(f"  (+{skipped} lanes not shown; "
                     f"raise max_lanes to include them)")
    return "\n".join(lines)


def histogram_chart(histograms: _t.Mapping[str, Histogram], *,
                    title: str, width: int = 64, height: int = 12) -> str:
    """Render labelled histograms as one ASCII chart (count vs bound).

    Built on :func:`repro.util.ascii_chart.render_chart`; each entry of
    ``histograms`` becomes one series of (bucket upper bound, count).
    """
    series_list = []
    for name in sorted(histograms):
        buckets = histograms[name].nonzero_buckets()
        if not buckets:
            continue
        series = Series(name, "bucket", "count")
        for bound, count in buckets:
            series.add(bound, count)
        series_list.append(series)
    if not series_list:
        return f"{title}: (no samples)"
    log_x = all(x > 0 for s in series_list for x in s.xs)
    return render_chart(series_list, title=title, width=width,
                        height=height, log_x=log_x)


def latency_chart(obs: Observability, *, width: int = 64,
                  height: int = 12) -> str:
    """Per-method end-to-end RSR latency distribution as an ASCII chart."""
    histograms: dict[str, Histogram] = {}
    for _name, labels, metric in obs.metrics.collect("rsr_latency_us"):
        histograms[dict(labels).get("method", NEXUS_LANE)] = _t.cast(
            Histogram, metric)
    return histogram_chart(histograms,
                           title="RSR end-to-end latency [us] by method",
                           width=width, height=height)


#: A Chrome trace carries no ``schema`` key; the validator CLI
#: recognises it by its ``traceEvents``.
DOCUMENT = Schema("repro.obs.trace", None, _validate, "Chrome trace")


# keep GLYPHS imported name referenced for re-export convenience
__all__ = [
    "DOCUMENT", "GLYPHS", "PHASE_GLYPHS", "ascii_timeline",
    "chrome_trace_events", "histogram_chart", "latency_chart",
    "merged_chrome_trace", "write_merged_chrome_trace",
]
