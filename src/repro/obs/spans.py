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
import weakref

from .metrics import LATENCY_BUCKETS_US, MetricsRegistry

if _t.TYPE_CHECKING:  # pragma: no cover
    from array import array

    from ..simnet.engine import Simulator
    from .timeline import Timeline

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
        self.current = None
        obs.sink.record_drop_event((self.rsr, obs.sim._now, self.lane))

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
        """Close the final span and record the end-to-end delivery."""
        obs = self.obs
        span = self.current
        if span is not None and span.end is None:
            if threaded:
                if span.attrs is None:
                    span.attrs = {}
                span.attrs["threaded"] = True
            # Observability.close_span, inlined.
            span.end = obs.sim._now
            del obs._open[span.id]
            obs.sink.record_span(span)
        self.current = None
        obs.rsrs_finished += 1
        lane = self.lane
        if self.hops:
            obs._counter_handle("rsr_forwarded", lane).inc()
        obs.sink.record_delivery((self.rsr, now, lane,
                                  (now - self.issued_at) * 1e6,
                                  span.ctx if span is not None else None))


#: A record, as the tracer writes it to its sink and :class:`RecordFold`
#: reads it: a closed :class:`Span`; a delivery ``(rsr, t, lane,
#: latency_us, ctx)``, ``ctx`` the final span's context (``None`` when
#: that span was dropped at capacity); or a drop ``(rsr, t, lane)``.
Record = Span | tuple


class SpanLog:
    """The in-memory sink, installed on every :class:`Observability`.

    It keeps every record — closed spans, deliveries and drops, in live
    order (``closed`` picks the spans out; ``Observability.spans`` adds
    the open ones) — and owns the capacity cap: once ``max_spans``
    spans are in memory, ``open_span`` drops the rest.  A
    :class:`repro.obs.stream.SpanSpool` replaces it when a run spools to
    disk.  The protocol both share: ``record_span`` at every close;
    ``chain_begin`` as a message chain (a send attempt or a multicast
    fork) starts, and ``record_delivery``, ``record_drop_event`` (each
    handed its record) or ``chain_end`` (an abandoned attempt, a retired
    fan-out parent) as it ends; ``unfolded`` (the records since its last
    call, which the registry and the timeline fold when read);
    ``max_spans``, ``closed`` (spans kept in memory), ``released``
    (closed spans taken out of it), ``overhead`` and the one span
    reader, ``rsr_groups``.
    """

    #: Closed spans taken out of memory: none, they stay resident.
    released = 0

    def __init__(self, max_spans: int):
        self.max_spans = max_spans
        self.records: list[Record] = []
        #: How many of ``records`` :meth:`unfolded` has handed out.
        self._folded = 0
        # A record is one append, whatever its kind.
        self.record_span = self.record_delivery = self.record_drop_event = (
            self.records.append)

    @property
    def closed(self) -> list[Span]:
        """The closed spans, in the order they closed."""
        return [record for record in self.records
                if record.__class__ is Span]

    def unfolded(self) -> list[Record]:
        """The records made since the last call, in live order."""
        records = self.records
        start = self._folded
        self._folded = len(records)
        return records[start:]

    def chain_begin(self, rsr: int) -> None:
        pass

    def chain_end(self, rsr: int) -> None:
        pass

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


#: Records one fold takes at a time, so its lists stay small however
#: many records wait.
_FOLD_RECORDS = 4096


class RecordFold:
    """Folds records into a registry's histograms and a timeline's
    columns: the one fold of the tracer's records, live
    (:class:`Observability`, before any read) and replayed from a spool
    (:func:`repro.obs.stream.fold_stream`).

    A closed span adds its duration (µs, at its end) to
    ``rsr_phase_us{phase,lane}`` and the phase column; a delivery its
    latency to ``rsr_latency_us{method}`` and the method and ``all``
    latency columns, and one to the delivered column and, with a
    ``ctx``, the rank column; a drop one to the dropped column; and an
    issue span, open or closed, whose id is above ``issued_after`` (any
    id while it is ``None``) one to the issued column at its start.
    ``registry`` or ``timeline`` may be ``None``.

    No call per record (docs/ARCHITECTURE.md, "Performance model"): a
    record grows plain lists with ``list +=``, and each list extends its
    target once per fold.  A key's targets are resolved at its first
    record, so columns and histograms are created in record order and
    receive their values in record order.
    """

    def __init__(self, registry: MetricsRegistry | None,
                 timeline: "Timeline | None", *,
                 issued_after: int | None = None):
        self.registry = registry
        self.timeline = timeline
        self.issued_after = issued_after
        #: Where the last :meth:`fold` stopped on a ``TypeError``: the
        #: index of the record it could not fold.
        self.failed_at = -1
        # One list per target, in resolution order (lanes share the
        # ``all`` latency column, so targets are keyed by identity).
        self._buffers: list[tuple["array[float]", list[float]]] = []
        self._by_target: dict[int, list[float]] = {}
        self._phases: dict[tuple[str, str], tuple[list[float] | None,
                                                  list[float] | None]] = {}
        self._lanes: dict[str, tuple[list[float] | None, ...]] = {}
        self._ranks: dict[int, list[float]] = {}
        self._drops: dict[str, list[float]] = {}
        self._issued: list[float] | None = None

    def fold(self, records: _t.Sequence[Record]) -> None:
        """Fold ``records`` in; a ``TypeError`` (a value no target would
        hold) propagates with ``failed_at`` set."""
        for start in range(0, len(records), _FOLD_RECORDS):
            self._fold(records[start:start + _FOLD_RECORDS], start)

    def _fold(self, records: _t.Sequence[Record], offset: int) -> None:
        timeline = self.timeline
        issued_after = self.issued_after
        phases, lanes = self._phases, self._lanes
        ranks, drops = self._ranks, self._drops
        issued = self._issued
        index = 0
        try:
            for index, record in enumerate(records):
                if record.__class__ is Span:
                    end = record.end
                    if end is not None:
                        key = (record.phase, record.lane)
                        observed, column = (phases[key] if key in phases
                                            else self._phase(key))
                        duration_us = (end - record.start) * 1e6
                        if observed is not None:
                            observed += (duration_us,)
                        if column is not None:
                            column += (end, duration_us)
                    if (timeline is not None and record.phase == PHASE_ISSUE
                            and (issued_after is None
                                 or record.id > issued_after)):
                        if issued is None:
                            issued = self._issued = self._buffer(
                                timeline.issued_column())
                        issued += (record.start - 0.0, 1.0)
                    continue
                match record:
                    case (_, now, lane, latency_us, ctx):
                        observed, latency, latency_all, delivered = (
                            lanes[lane] if lane in lanes
                            else self._lane(lane))
                        if observed is not None:
                            observed += (latency_us,)
                        if latency is not None:
                            latency += (now, latency_us)
                            latency_all += (now, latency_us)
                            delivered += (now, 1.0)
                            if ctx is not None:
                                rank = (ranks[ctx] if ctx in ranks
                                        else self._rank(ctx))
                                rank += (now, 1.0)
                    case (_, now, lane):
                        if timeline is not None:
                            dropped = (drops[lane] if lane in drops
                                       else self._drop(lane))
                            dropped += (now, 1.0)
        except TypeError:
            self.failed_at = offset + index
            raise
        for target, values in self._buffers:
            if values:
                target.extend(values)
                del values[:]

    # First-touch resolution of a key's targets (a call per key, not per
    # record).

    def _buffer(self, target: "array[float]") -> list[float]:
        values = self._by_target.get(id(target))
        if values is None:
            values = self._by_target[id(target)] = []
            self._buffers.append((target, values))
        return values

    def _phase(self, key: tuple[str, str]
               ) -> tuple[list[float] | None, list[float] | None]:
        registry, timeline = self.registry, self.timeline
        slot = self._phases[key] = (
            None if registry is None else self._buffer(registry.histogram(
                "rsr_phase_us", LATENCY_BUCKETS_US,
                phase=key[0], lane=key[1]).unfolded()),
            None if timeline is None
            else self._buffer(timeline.phase_column(*key)))
        return slot

    def _lane(self, lane: str) -> tuple[list[float] | None, ...]:
        registry, timeline = self.registry, self.timeline
        observed = None if registry is None else self._buffer(
            registry.histogram("rsr_latency_us", LATENCY_BUCKETS_US,
                               method=lane).unfolded())
        columns = ((None, None, None) if timeline is None
                   else tuple(map(self._buffer,
                                  timeline.delivery_columns(lane))))
        slot = self._lanes[lane] = (observed, *columns)
        return slot

    def _rank(self, ctx: int) -> list[float]:
        timeline = _t.cast("Timeline", self.timeline)
        rank = self._ranks[ctx] = self._buffer(timeline.rank_column(ctx))
        return rank

    def _drop(self, lane: str) -> list[float]:
        timeline = _t.cast("Timeline", self.timeline)
        dropped = self._drops[lane] = self._buffer(
            timeline.dropped_column(lane))
        return dropped


class Observability:
    """Span recorder + metrics registry for one runtime.

    Created by :class:`~repro.core.runtime.Nexus` (one per runtime,
    always present).  Counters in ``metrics`` always count; spans,
    histograms and gauges are recorded only while ``enabled``.  With
    ``enabled=False`` — the default — every span entry point is a
    no-op; the only cost on hot paths is an attribute load and a branch.
    Every span is recorded one way: held here while open and handed to
    ``sink`` when it closes.  A traced event — a span close, a delivery,
    a drop — is that one record; the registry's histograms and the
    timeline's columns are folded from the sink's records when they are
    read (:class:`RecordFold`, through their ``_unread`` hooks).
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
        self._counters: dict[tuple[str, str], object] = {}
        #: Optional windowed telemetry (attach with :meth:`enable_timeline`).
        self.timeline: Timeline | None = None
        # A traced event is one record in ``sink``: the registry folds
        # the records in before any read, the timeline too once attached
        # (the fold is made at the first record or timeline).
        self._record_fold: RecordFold | None = None
        self.metrics._unread = self._fold_records

    def enable_timeline(self, interval: float, *,
                        bounds: _t.Sequence[float] = LATENCY_BUCKETS_US
                        ) -> Timeline:
        """Attach a fixed-interval :class:`~repro.obs.timeline.Timeline`.

        It fills from the span records, so only while ``enabled`` is
        true, and only from records made after it is attached: the
        records made before are folded first (into the timeline it
        replaces, if any, which then stops filling).  Its columns fill
        when it is read, not as the records are made.  It holds this
        tracer weakly, so a timeline kept after the run (a load result
        keeps one) does not keep the run alive: the records it has not
        read yet reach it as the tracer is collected (:meth:`__del__`).
        """
        from .timeline import Timeline

        previous = self.timeline
        if previous is None:
            self._fold_records()
        else:
            self._fold_timeline()
            previous._unread = None
        timeline = Timeline(interval, bounds=bounds)
        tracer = weakref.ref(self)

        def unread() -> None:
            obs = tracer()
            if obs is not None:
                obs._fold_timeline()

        timeline._unread = unread
        self.timeline = timeline
        self._record_fold = RecordFold(self.metrics, timeline,
                                       issued_after=self._next_span - 1)
        return timeline

    def __del__(self) -> None:
        # The timeline holds this tracer weakly: hand it what it has not
        # read yet.
        if self.timeline is not None:
            self._fold_timeline()

    def _fold_records(self) -> None:
        """Fold the sink's new records into the registry and the
        timeline (the registry's ``_unread``)."""
        records = self.sink.unfolded()
        if records:
            fold = self._record_fold
            if fold is None:
                fold = self._record_fold = RecordFold(self.metrics, None)
            fold.fold(records)

    def _fold_timeline(self) -> None:
        """The timeline's ``_unread``: :meth:`_fold_records`, then the
        issue spans opened since the last call and open still.  An issue
        span counts as issued once, at its start: at the first timeline
        read it is open for, or else as its record is folded."""
        self._fold_records()
        fold = _t.cast(RecordFold, self._record_fold)
        after = _t.cast(int, fold.issued_after)
        opened = [span for span in self._open.values()
                  if span.id > after and span.phase == PHASE_ISSUE]
        if opened:
            fold.fold(opened)
        fold.issued_after = self._next_span - 1

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
        span.end = self.sim._now
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
        span = Span(span_id, self._next_rsr, PHASE_ISSUE, ctx, NEXUS_LANE,
                    self.sim._now, None, None,
                    {"handler": handler, "links": links})
        self._next_span = span_id + 1
        self._open[span_id] = span
        if resident >= self.peak_spans:
            self.peak_spans = resident + 1
        self._next_rsr += 1
        self.rsrs_started += 1
        return span

    def attach(self, message: object, issue: Span) -> None:
        """Give ``message`` its own trace chain rooted at ``issue``."""
        message.trace = MessageTrace(  # type: ignore[attr-defined]
            self, issue.rsr, issue, issue.start)
        self.sink.chain_begin(issue.rsr)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Observability enabled={self.enabled} "
                f"spans={len(self.spans)} rsrs={self.rsrs_started}>")
