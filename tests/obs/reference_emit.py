"""The parent's eager emit hooks, kept as a differential oracle.

``MessageTrace.transition``, ``finish`` and ``drop`` and
``Observability.close_span``, ``rsr_begin``, ``enable_timeline`` and the
slot caches (``_phase_slot``, ``_lane_slot``, ``_issued``) as they stood
at ``a2bb8e4``, before a traced event became one record folded on read:
there, every span close appended its duration to the
``rsr_phase_us`` histogram and to the timeline's phase column, every
delivery its latency to ``rsr_latency_us`` and to four timeline columns,
every drop to the dropped column, and ``rsr_begin`` to the issued
column, each at once.  A traced poll miss appended ``0.0`` to
``poll_batch`` (:func:`reference_miss`).

The method bodies are unedited but for three protocol changes the sinks
made since: a histogram's ``recorder()`` is now ``unfolded().append``,
and a sink's ``record_delivery`` and ``record_drop_event`` take the
record as one tuple.  The reference never folds records: its registry
and timeline have no ``_unread`` hook, and the records a spool would
fold are drained and dropped (:meth:`ReferenceObservability._fold_records`).

``test_emit_oracle.py`` runs the same generated programs against both
and requires the registry snapshots, the timeline documents and the
spool bytes to agree.  Test-only; never import it from ``src``.
"""

from __future__ import annotations

import typing as _t

from repro.obs.metrics import COUNT_BUCKETS, LATENCY_BUCKETS_US
from repro.obs.spans import (
    NEXUS_LANE,
    PHASE_DISPATCH,
    PHASE_FORWARD,
    PHASE_HANDLER,
    PHASE_ISSUE,
    PHASE_WIRE,
    MessageTrace,
    Observability,
    Span,
)


class ReferenceMessageTrace(MessageTrace):
    __slots__ = ()

    def transition(self, phase: str, ctx: int, lane: str | None = None,
                   **attrs: object) -> Span | None:
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

    def fork(self, ctx: int, lane: str, **attrs: object) -> MessageTrace:
        parent = self.current
        child = ReferenceMessageTrace(self.obs, self.rsr, None,
                                      self.issued_at, lane=lane,
                                      hops=self.hops)
        span = self.obs.open_span(
            PHASE_WIRE, rsr=self.rsr, ctx=ctx, lane=lane,
            parent=parent.id if parent is not None else None, **attrs)
        if span is not None:
            child.current = span
        self.obs.sink.chain_begin(self.rsr)
        return child

    def drop(self, ctx: int = -1) -> None:
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
        obs.sink.record_drop_event((self.rsr, now, self.lane))

    def finish(self, now: float, *, threaded: bool = False) -> None:
        obs = self.obs
        span = self.current
        if span is not None and span.end is None:
            if threaded:
                if span.attrs is None:
                    span.attrs = {}
                span.attrs["threaded"] = True
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
        obs.sink.record_delivery((self.rsr, now, lane, latency_us,
                                  span.ctx if span is not None else None))


class ReferenceObservability(Observability):
    """An :class:`Observability` recording every event eagerly."""

    def __init__(self, sim: _t.Any, **kwargs: _t.Any):
        super().__init__(sim, **kwargs)
        self.metrics._unread = None
        self._phase_slots: dict = {}
        self._lane_slots: dict = {}
        self._issued = None

    def __del__(self) -> None:
        pass

    def _fold_records(self) -> None:
        self.sink.unfolded()

    def enable_timeline(self, interval: float, *,
                        bounds: _t.Sequence[float] = LATENCY_BUCKETS_US):
        from repro.obs.timeline import Timeline

        timeline = Timeline(interval, bounds=bounds)
        self.timeline = timeline
        self._phase_slots.clear()
        self._lane_slots.clear()
        self._issued = None
        return timeline

    def _phase_slot(self, phase: str, lane: str):
        hist = self.metrics.histogram(
            "rsr_phase_us", LATENCY_BUCKETS_US, phase=phase, lane=lane)
        timeline = self.timeline
        slot = self._phase_slots[(phase, lane)] = (
            hist.unfolded().append, None if timeline is None
            else timeline.phase_column(phase, lane))
        return slot

    def _lane_slot(self, lane: str):
        hist = self.metrics.histogram(
            "rsr_latency_us", LATENCY_BUCKETS_US, method=lane)
        timeline = self.timeline
        columns = ((None, None, None) if timeline is None
                   else timeline.delivery_columns(lane))
        slot = self._lane_slots[lane] = (hist.unfolded().append, *columns)
        return slot

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

    def rsr_begin(self, ctx: int, handler: str, links: int) -> Span | None:
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
        message.trace = ReferenceMessageTrace(  # type: ignore[attr-defined]
            self, issue.rsr, issue, issue.start)
        self.sink.chain_begin(issue.rsr)


def reference_batch(obs: Observability, method: str):
    """``PollManager._batch`` before a miss was a count: the lane cached
    the ``poll_batch`` recorder (its pending array's ``append``)."""
    return obs.metrics.histogram("poll_batch", COUNT_BUCKETS,
                                 method=method).unfolded().append


def reference_miss(append) -> None:
    """A traced poll that finds the lane empty, before: one ``0.0``."""
    append(0.0)
