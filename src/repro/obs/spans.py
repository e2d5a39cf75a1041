"""Span-based RSR lifecycle tracing.

Every remote service request is traced as a tree of *spans*, one per
lifecycle phase, linked by parent ids and sharing one causal ``rsr`` id:

========== ===============================================================
phase      covers
========== ===============================================================
issue      ``Startpoint.rsr()`` entry until every link's send is handed off
marshal    header/buffer marshalling (the Nexus send overhead charge)
enqueue    comm-object send: transport overheads, connect, serialisation
wire       physical transit: ``sent_at`` until arrival at the destination
           device (fast transports) or kernel buffer (IP transports)
poll_detect arrival until the message is picked up for dispatch — the
           detection latency that ``skip_poll`` trades against poll cost
forward    forwarding-service hop at a forwarder context (Section 3.3)
dispatch   receive-side decode + dispatch/receive cost charges
handler    the registered handler's invocation
========== ===============================================================

A multicast group send forks one child chain per member; a forwarded
message chains ``... → poll_detect → forward → enqueue → wire → ...``
through the forwarder, so the full multi-hop path is one connected tree.

All timestamps come from the deterministic simulation clock and all ids
from per-:class:`Observability` counters, so identical runs produce
identical span logs.  When tracing is disabled nothing is allocated:
messages carry ``trace=None`` and every instrumentation site is a single
attribute load plus a branch.
"""

from __future__ import annotations

import dataclasses
import itertools
import operator
import typing as _t

from .metrics import LATENCY_BUCKETS_US, MetricsRegistry

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..simnet.engine import Simulator
    from .timeline import Column, Timeline

#: A histogram's :meth:`~repro.obs.metrics.Histogram.recorder`: what a
#: cached slot records through.
_Observe = _t.Callable[[float], None]

PHASE_ISSUE = "issue"
PHASE_MARSHAL = "marshal"
PHASE_ENQUEUE = "enqueue"
PHASE_WIRE = "wire"
PHASE_POLL_DETECT = "poll_detect"
PHASE_FORWARD = "forward"
PHASE_DISPATCH = "dispatch"
PHASE_HANDLER = "handler"
# Failure-recovery phases (children of the issue span): a backoff-and-
# retry of one attempt, a switch to the next applicable method, and a
# cool-off probe of a down method.
PHASE_RETRY = "retry"
PHASE_FAILOVER = "failover"
PHASE_PROBE = "probe"

#: Lifecycle order (also the rendering order of reports/exports).
PHASES: tuple[str, ...] = (
    PHASE_ISSUE, PHASE_MARSHAL, PHASE_ENQUEUE, PHASE_WIRE,
    PHASE_POLL_DETECT, PHASE_FORWARD, PHASE_DISPATCH, PHASE_HANDLER,
    PHASE_RETRY, PHASE_FAILOVER, PHASE_PROBE,
)

#: Lane used for spans not attributable to one transport.
NEXUS_LANE = "nexus"


class TraceIncompleteError(RuntimeError):
    """An analysis was asked to trust a span log that recorded drops.

    Graph and critical-path extraction walk parent links; a log that
    discarded spans at capacity has holes in those chains, so
    :meth:`Observability.rsr_groups` refuses it unless
    ``allow_partial=True`` (the documents then carry the drop count).
    """


@dataclasses.dataclass(slots=True)
class Span:
    """One traced interval of one RSR's lifecycle."""

    id: int
    rsr: int              # causal id shared by every span of one RSR
    phase: str
    ctx: int              # context id (chrome-trace "process")
    lane: str             # transport method or "nexus" ("thread")
    start: float
    end: float | None = None
    parent: int | None = None
    attrs: dict[str, object] | None = None


class MessageTrace:
    """Per-message causal state threaded through the stack.

    Attached to :class:`~repro.transports.base.WireMessage.trace` by the
    RSR layer; transports and the dispatch path advance it with
    :meth:`transition`.  Holds the currently open span so each phase's
    span becomes the parent of the next.
    """

    __slots__ = ("obs", "rsr", "current", "issued_at", "lane", "hops")

    def __init__(self, obs: "Observability", rsr: int, current: Span | None,
                 issued_at: float, lane: str = NEXUS_LANE, hops: int = 0):
        self.obs = obs
        self.rsr = rsr
        #: Last span opened for this message (parent of the next phase).
        self.current = current
        self.issued_at = issued_at
        #: Last transport lane this message travelled on.
        self.lane = lane
        #: Forwarding hops taken so far.
        self.hops = hops

    def transition(self, phase: str, ctx: int, lane: str | None = None,
                   **attrs: object) -> Span | None:
        """Close the open span (if any) and open the next phase's span.

        One frame: the bodies of :meth:`Observability.close_span` and
        :meth:`Observability.open_span`, inlined, at one clock read.
        """
        obs = self.obs
        now = obs.sim._now
        previous = self.current
        if (previous is not None and previous.end is None
                and previous.phase != PHASE_ISSUE):
            previous.end = now
            slots, key = obs._phase_slots, (previous.phase, previous.lane)
            observe, column = (slots[key] if key in slots
                               else obs._phase_slot(*key))
            duration_us = (now - previous.start) * 1e6
            observe(duration_us)
            if column is not None:
                column.extend((now, duration_us))
            del obs._open[previous.id]
            obs.sink.record_span(previous)
        if lane is None:
            # Receive-side phases render on the context's nexus lane; the
            # remembered transport lane still labels latency metrics.
            lane = (NEXUS_LANE if phase in (PHASE_DISPATCH, PHASE_HANDLER,
                                            PHASE_FORWARD) else self.lane)
        else:
            self.lane = lane
        if not obs.enabled:
            return None
        span_id = obs._next_span
        sink = obs.sink
        resident = span_id - 1 - sink.released
        if resident >= sink.max_spans:
            obs.dropped_spans += 1
            return None
        span = self.current = Span(
            span_id, self.rsr, phase, ctx, lane, now, None,
            previous.id if previous is not None else None, attrs or None)
        obs._next_span = span_id + 1
        obs._open[span_id] = span
        if resident >= obs.peak_spans:
            obs.peak_spans = resident + 1
        return span

    def fork(self, ctx: int, lane: str, **attrs: object) -> "MessageTrace":
        """A child trace for a fan-out copy (multicast member delivery).

        The child's first span is a ``wire`` span parented on this
        trace's open span (which stays open — the caller closes it after
        the fan-out), so the group send remains one tree.
        """
        parent = self.current
        child = MessageTrace(self.obs, self.rsr, None, self.issued_at,
                             lane=lane, hops=self.hops)
        span = self.obs.open_span(
            PHASE_WIRE, rsr=self.rsr, ctx=ctx, lane=lane,
            parent=parent.id if parent is not None else None, **attrs)
        if span is not None:
            child.current = span
        self.obs.sink.chain_begin(self.rsr)
        return child

    def drop(self, ctx: int = -1) -> None:
        """Terminate the trace at a message drop."""
        obs = self.obs
        span = self.current
        if span is not None and span.end is None:
            if span.attrs is None:
                span.attrs = {}
            span.attrs["dropped"] = True
            obs.close_span(span)
        obs._counter_handle("rsr_dropped", self.lane).inc()
        now = obs.sim._now
        timeline = obs.timeline
        if timeline is not None:
            timeline.dropped_column(self.lane).extend((now, 1.0))
        self.current = None
        obs.sink.record_drop_event(self.rsr, now, self.lane)

    def abandon(self, reason: str) -> None:
        """Terminate the trace of one failed send attempt.

        The issue span stays open (a retry/failover will attach a fresh
        chain to it); only the attempt's open span is closed and marked
        failed, and the attempt's chain ends, so the RSR can still
        resolve.
        """
        obs = self.obs
        span = self.current
        if (span is not None and span.end is None
                and span.phase != PHASE_ISSUE):
            if span.attrs is None:
                span.attrs = {}
            span.attrs["failed"] = True
            span.attrs["error"] = reason
            obs.close_span(span)
        self.current = None
        obs.sink.chain_end(self.rsr)

    def retire(self) -> None:
        """Close a fan-out parent chain once its forks are launched."""
        obs = self.obs
        span = self.current
        if span is not None and span.end is None:
            obs.close_span(span)
        self.current = None
        obs.sink.chain_end(self.rsr)

    def finish(self, now: float, *, threaded: bool = False) -> None:
        """Close the final span and record end-to-end latency metrics."""
        obs = self.obs
        span = self.current
        if span is not None and span.end is None:
            if threaded:
                if span.attrs is None:
                    span.attrs = {}
                span.attrs["threaded"] = True
            # Observability.close_span, inlined.
            end = span.end = obs.sim._now
            slots, key = obs._phase_slots, (span.phase, span.lane)
            observe, column = (slots[key] if key in slots
                               else obs._phase_slot(*key))
            duration_us = (end - span.start) * 1e6
            observe(duration_us)
            if column is not None:
                column.extend((end, duration_us))
            del obs._open[span.id]
            obs.sink.record_span(span)
        self.current = None
        obs.rsrs_finished += 1
        lane = self.lane
        slots = obs._lane_slots
        observe, latency, latency_all, delivered = (
            slots[lane] if lane in slots else obs._lane_slot(lane))
        latency_us = (now - self.issued_at) * 1e6
        observe(latency_us)
        if latency is not None:
            latency.extend((now, latency_us))
            latency_all.extend((now, latency_us))
            delivered.extend((now, 1.0))
            if span is not None:
                obs.timeline.rank_column(span.ctx).extend((now, 1.0))
        if self.hops:
            obs._counter_handle("rsr_forwarded", lane).inc()
        obs.sink.record_delivery(self.rsr, now, lane, latency_us,
                                 span.ctx if span is not None else None)


class SpanLog:
    """The in-memory sink, installed on every :class:`Observability`.

    It keeps every closed span (``Observability.spans`` adds the open
    ones) and owns the capacity cap: once ``max_spans`` spans are in
    memory, ``open_span`` drops the rest.  A
    :class:`repro.obs.stream.SpanSpool` replaces it when a run spools to
    disk.  The protocol both share: ``record_span`` at every close;
    ``chain_begin`` as a message chain (a send attempt or a multicast
    fork) starts, and ``record_delivery``, ``record_drop_event`` or
    ``chain_end`` (an abandoned attempt, a retired fan-out parent) as
    it ends; ``max_spans``, ``closed`` (spans kept in memory),
    ``released`` (closed spans taken out of it), ``overhead`` and the
    one reader, ``rsr_groups``.  The log keeps nothing but spans: the
    registry and timeline hold the rest.
    """

    #: Closed spans taken out of memory: none, they stay resident.
    released = 0

    def __init__(self, max_spans: int):
        self.max_spans = max_spans
        self.closed: list[Span] = []
        self.record_span = self.closed.append

    def record_delivery(self, rsr: int, now: float, lane: str,
                        latency_us: float, ctx: int | None) -> None:
        pass

    def chain_begin(self, rsr: int) -> None:
        pass

    def chain_end(self, *_record: object) -> None:
        pass

    record_drop_event = chain_end

    def overhead(self, opened: int) -> dict[str, object]:
        return {"spans_recorded": opened, "streaming": False}

    def rsr_groups(self, open_spans: _t.Iterable[Span]
                   ) -> _t.Iterator[tuple[int, list[Span]]]:
        """The closed spans and ``open_spans`` by RSR, ascending, in id
        order within a group (a sort on a C key: no call per span)."""
        spans = sorted([*self.closed, *open_spans],
                       key=operator.attrgetter("rsr", "id"))
        for rsr, group in itertools.groupby(spans,
                                            operator.attrgetter("rsr")):
            yield rsr, list(group)


class Observability:
    """Span recorder + metrics registry for one runtime.

    Created by :class:`~repro.core.runtime.Nexus` (one per runtime,
    always present).  Counters in ``metrics`` always count; spans,
    histograms and gauges are recorded only while ``enabled``.  With
    ``enabled=False`` — the default — every span entry point is a
    no-op; the only cost on hot paths is an attribute load and a branch.
    Every span is recorded one way: held here while open and handed to
    ``sink`` when it closes.
    """

    def __init__(self, sim: "Simulator", *, enabled: bool = False,
                 max_spans: int = 1_000_000):
        self.sim = sim
        self.enabled = enabled
        self.metrics = MetricsRegistry()
        #: Where spans go: this log, or a spool that replaced it.
        self.sink = SpanLog(max_spans)
        #: Spans discarded after hitting ``max_spans`` (never silent:
        #: surfaced by reports and exports).
        self.dropped_spans = 0
        self.rsrs_started = 0
        self.rsrs_finished = 0
        #: High-water mark of ``len(spans)``: the spans opened less
        #: those the sink released.
        self.peak_spans = 0
        self._next_span = 1
        self._next_rsr = 1
        self._open: dict[int, Span] = {}  # by id, so in id order
        # Instrument-handle caches: the registry's (name, sorted-labels)
        # lookup sorts a label tuple per call, which is measurable when a
        # traced run closes a span per lifecycle phase per message.  The
        # label sets here are tiny (phases × lanes), so plain dicts keyed
        # on the raw values resolve each handle once — together with the
        # timeline columns the same event appends to (``None`` while no
        # timeline is attached).  A slot holds the histogram's
        # ``recorder()`` (its pending array's ``append``), not the
        # histogram: an observation is one append, folded when read.
        self._phase_slots: dict[tuple[str, str],
                                tuple[_Observe, Column | None]] = {}
        self._lane_slots: dict[str, tuple[_Observe, Column | None,
                                          Column | None,
                                          Column | None]] = {}
        self._issued: Column | None = None
        self._counters: dict[tuple[str, str], object] = {}
        #: Optional windowed telemetry (attach with :meth:`enable_timeline`).
        self.timeline: Timeline | None = None

    def enable_timeline(self, interval: float, *,
                        bounds: _t.Sequence[float] = LATENCY_BUCKETS_US
                        ) -> Timeline:
        """Attach a fixed-interval :class:`~repro.obs.timeline.Timeline`.

        Recording piggybacks on the span hooks, so the timeline only
        fills while ``enabled`` is true.  The hooks cache each timeline
        column beside the registry handle of the same event, so an
        observation costs one append (the timeline folds its windows
        when read); when no timeline is attached they pay a ``None``
        test.  Attaching drops the cached slots so they pick up the new
        timeline's columns.
        """
        from .timeline import Timeline

        timeline = Timeline(interval, bounds=bounds)
        self.timeline = timeline
        self._phase_slots.clear()
        self._lane_slots.clear()
        self._issued = None
        return timeline

    def _phase_slot(self, phase: str, lane: str
                    ) -> tuple[_Observe, Column | None]:
        """Resolve and cache the handles one closed span records to."""
        hist = self.metrics.histogram(
            "rsr_phase_us", LATENCY_BUCKETS_US, phase=phase, lane=lane)
        timeline = self.timeline
        slot = self._phase_slots[(phase, lane)] = (
            hist.recorder(), None if timeline is None
            else timeline.phase_column(phase, lane))
        return slot

    def _lane_slot(self, lane: str) -> tuple[_Observe, Column | None,
                                             Column | None, Column | None]:
        """Resolve and cache the handles one delivery on ``lane``
        records to."""
        hist = self.metrics.histogram(
            "rsr_latency_us", LATENCY_BUCKETS_US, method=lane)
        timeline = self.timeline
        columns = ((None, None, None) if timeline is None
                   else timeline.delivery_columns(lane))
        slot = self._lane_slots[lane] = (hist.recorder(), *columns)
        return slot

    def _counter_handle(self, name: str, method: str):
        """Cached counter handle for a ``method``-labelled counter."""
        key = (name, method)
        counter = self._counters.get(key)
        if counter is None:
            counter = self.metrics.counter(name, method=method)
            self._counters[key] = counter
        return counter

    # -- span primitives -----------------------------------------------------

    def open_span(self, phase: str, *, rsr: int = 0, ctx: int = -1,
                  lane: str = NEXUS_LANE, parent: int | None = None,
                  **attrs: object) -> Span | None:
        if not self.enabled:
            return None
        span_id = self._next_span
        sink = self.sink
        resident = span_id - 1 - sink.released
        if resident >= sink.max_spans:
            self.dropped_spans += 1
            return None
        span = Span(id=span_id, rsr=rsr, phase=phase, ctx=ctx,
                    lane=lane, start=self.sim._now, parent=parent,
                    attrs=attrs or None)
        self._next_span = span_id + 1
        self._open[span_id] = span
        if resident >= self.peak_spans:
            self.peak_spans = resident + 1
        return span

    def close_span(self, span: Span | None) -> None:
        if span is None:
            return
        end = span.end = self.sim._now
        slots, key = self._phase_slots, (span.phase, span.lane)
        observe, column = (slots[key] if key in slots
                           else self._phase_slot(*key))
        duration_us = (end - span.start) * 1e6
        observe(duration_us)
        if column is not None:
            column.extend((end, duration_us))
        del self._open[span.id]
        self.sink.record_span(span)

    @property
    def spans(self) -> list[Span]:
        """The spans in memory, in id order: those the sink keeps (all
        of them in memory, none while spooling) and the open ones."""
        return sorted([*self.sink.closed, *self._open.values()],
                      key=operator.attrgetter("id"))

    def rsr_groups(self, *, allow_partial: bool = False
                   ) -> _t.Iterator[tuple[int, list[Span]]]:
        """Every span, one self-contained RSR group at a time, from
        whichever sink ran: what the span products fold.  A run that
        dropped spans at capacity has holes in its parent links, so it
        raises :class:`TraceIncompleteError` unless ``allow_partial``.
        """
        if self.dropped_spans and not allow_partial:
            raise TraceIncompleteError(
                f"span log dropped {self.dropped_spans} spans at capacity; "
                f"graphs would miss edges and critical paths break their "
                f"chains (pass allow_partial=True to read it anyway)")
        return self.sink.rsr_groups(self._open.values())

    def overhead(self) -> dict[str, object]:
        """Self-metering summary of what observation itself cost.

        Deterministic counts only — the spool's wall-clock cost lives on
        the sink (``SpanSpool.wall_s``: the seconds its block writes and
        its ``finalize`` took; the per-record appends are not metered)
        so this dict can appear in byte-compared reports.
        """
        sink = self.sink.overhead(self._next_span - 1)
        return {
            "spans_recorded": sink.pop("spans_recorded"),
            "spans_dropped": self.dropped_spans,
            "peak_spans": self.peak_spans,
            "rsrs_started": self.rsrs_started,
            "rsrs_finished": self.rsrs_finished,
            **sink,
        }

    # -- RSR lifecycle entry points ------------------------------------------

    def rsr_begin(self, ctx: int, handler: str, links: int) -> Span | None:
        """Open the root ``issue`` span of a new RSR (:meth:`open_span`'s
        body, inlined)."""
        if not self.enabled:
            return None
        span_id = self._next_span
        sink = self.sink
        resident = span_id - 1 - sink.released
        if resident >= sink.max_spans:
            self.dropped_spans += 1
            return None
        now = self.sim._now
        span = Span(span_id, self._next_rsr, PHASE_ISSUE, ctx, NEXUS_LANE,
                    now, None, None, {"handler": handler, "links": links})
        self._next_span = span_id + 1
        self._open[span_id] = span
        if resident >= self.peak_spans:
            self.peak_spans = resident + 1
        self._next_rsr += 1
        self.rsrs_started += 1
        timeline = self.timeline
        if timeline is not None:
            issued = self._issued
            if issued is None:
                issued = self._issued = timeline.issued_column()
            issued.extend((now, 1.0))
        return span

    def attach(self, message: object, issue: Span) -> None:
        """Give ``message`` its own trace chain rooted at ``issue``."""
        message.trace = MessageTrace(  # type: ignore[attr-defined]
            self, issue.rsr, issue, issue.start)
        self.sink.chain_begin(issue.rsr)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Observability enabled={self.enabled} "
                f"spans={len(self.spans)} rsrs={self.rsrs_started}>")
