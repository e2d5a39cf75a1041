"""The discrete-event simulator core.

:class:`Simulator` owns the virtual clock and the event queue and drives
simulated processes.  The design is deliberately classic (one heap of
``(time, priority, sequence, event)`` entries, generator-coroutine
processes) so that the behaviour of every experiment in this repository is
**deterministic**: the same program and seed always produce exactly the
same event ordering and the same virtual-time measurements.

Every scheduled event — a timeout, a zero-delay trigger from
``succeed()``/``fail()`` inside a callback, a process wake-up — is one
``heapq`` entry ``(t, priority, seq, event)``.  ``seq`` is unique, so
the tuples order totally and the event itself is never compared; see
the "Performance model" section of ``docs/ARCHITECTURE.md``.

Typical usage::

    sim = Simulator()

    def pinger():
        yield sim.timeout(1.0)
        return "done"

    proc = sim.process(pinger())
    sim.run()
    assert sim.now == 1.0 and proc.value == "done"
"""

from __future__ import annotations

import functools
import heapq
import typing as _t

from .clock import VirtualClock
from .errors import ScheduleError, SimnetError, SimulationFinished
from .events import AllOf, Event, Timeout
from .process import Process, ProcessGenerator

#: Default cap on processed events per ``run()``; a safety net against
#: accidental infinite poll loops in experiments.
DEFAULT_MAX_EVENTS = 500_000_000

_INF = float("inf")


class Simulator:
    """A deterministic discrete-event simulation kernel."""

    def __init__(self, start: float = 0.0):
        self._clock = VirtualClock(start)
        #: The event queue: a heap of ``(t, priority, seq, event)``.
        #: Never rebound — ``run()`` holds a reference to it.
        self._heap: list[tuple[float, int, int, Event]] = []
        #: Last sequence number handed out; breaks ties in creation order.
        self._seq = 0
        self._events_processed = 0
        # Shadow the ``timeout`` method with a C-level partial: timeouts
        # are created hundreds of thousands of times per run and the
        # wrapper frame was measurable.  ``Timeout`` validates the delay
        # and takes (delay, value, name) in the documented order, so the
        # binding is behaviourally identical (the method below stays as
        # the documented signature).
        self.timeout = functools.partial(Timeout, self)

    # -- time --------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._clock._now

    @property
    def events_processed(self) -> int:
        """Total number of events processed since construction."""
        return self._events_processed

    # -- event creation ------------------------------------------------------

    def event(self, name: str | None = None) -> Event:
        """Create a fresh untriggered :class:`Event`."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: object = None,
                name: str | None = None) -> Timeout:
        """An event that fires ``delay`` simulated seconds from now."""
        return Timeout(self, delay, value, name)

    def timeout_at(self, when: float, value: object = None,
                   name: str | None = None) -> Timeout:
        """An event that fires at the absolute simulated time ``when``.

        The clock then reads exactly ``when``, which ``timeout(when -
        now)`` cannot promise: ``now + (when - now)`` need not round back
        to ``when``.  A ``when`` earlier than now is a
        :class:`ScheduleError`; ``when == now`` is ordered like a
        zero-delay timeout.
        """
        return Timeout.at(self, when, value, name)

    def all_of(self, events: _t.Iterable[Event]) -> AllOf:
        """An event that fires, with value ``None``, when every event in
        ``events`` has fired."""
        return AllOf(self, events)

    def process(self, gen: ProcessGenerator, name: str | None = None) -> Process:
        """Start a new simulated process running generator ``gen``."""
        return Process(self, gen, name=name)

    #: Alias for :meth:`process`, reads better at call sites that launch
    #: long-lived activities.
    spawn = process

    # -- execution -----------------------------------------------------------

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        heap = self._heap
        return heap[0][0] if heap else _INF

    def step(self) -> None:
        """Process exactly one event (advance the clock to it first)."""
        heap = self._heap
        if not heap:
            raise SimnetError("step() on an empty event queue")
        t, _, _, event = heapq.heappop(heap)
        clock = self._clock
        if t > clock._now:
            clock._now = t
        self._events_processed += 1

        callbacks = event.callbacks
        event.callbacks = None  # mark processed
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            # A failure nobody handled: surface it instead of dropping it.
            raise _t.cast(BaseException, event._value)

    def run(self, until: float | Event | None = None,
            max_events: int = DEFAULT_MAX_EVENTS) -> object:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None``
                run until no events remain;
            a float
                run until the clock reaches that absolute time (events at
                exactly that time are *not* processed);
            an :class:`Event`
                run until that event is processed, returning its value
                (or raising its exception).
        max_events:
            Safety cap on processed events for this call.

        Returns the ``until`` event's value when ``until`` is an event,
        otherwise ``None``.
        """
        stop_time: float | None = None
        until_event: Event | None = None
        finish: _t.Callable[[Event], None] | None = None
        if isinstance(until, Event):
            if until.callbacks is None:  # already processed
                if not until._ok:
                    raise _t.cast(BaseException, until._value)
                return until._value
            until_event = until

            def finish(event: Event) -> None:
                raise SimulationFinished(event)

            until.callbacks.append(finish)
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._clock._now:
                raise ScheduleError(
                    f"run(until={stop_time!r}) is in the past (now={self.now!r})"
                )

        processed = 0
        clock = self._clock
        heap = self._heap
        heappop = heapq.heappop
        # ``_events_processed`` is kept in a local for the duration of the
        # loop (one attribute store per event adds up); the finally block
        # writes it back on every exit path, so external readers — all of
        # which run after run() returns — always see the true count.
        events_processed = self._events_processed
        try:
            # Inlined peek() + step() body: this loop drives every event
            # of a run, so it avoids the call pair.  Any change here must
            # be mirrored in step()/peek().
            while heap:
                t = heap[0][0]
                if stop_time is not None and t >= stop_time:
                    clock.advance_to(stop_time)
                    return None
                if processed >= max_events:
                    raise SimnetError(
                        f"run() exceeded max_events={max_events}; "
                        "likely an unbounded poll loop"
                    )
                event = heappop(heap)[3]
                if t > clock._now:
                    clock._now = t
                events_processed += 1
                processed += 1

                callbacks = event.callbacks
                event.callbacks = None  # mark processed
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise _t.cast(BaseException, event._value)
        except SimulationFinished as finished:
            event = _t.cast(Event, finished.value)
            if not event._ok:
                event.defuse()
                raise _t.cast(BaseException, event._value) from None
            return event._value
        finally:
            self._events_processed = events_processed
            # Detach the finish callback if the run ended without
            # processing ``until`` (max_events abort, queue ran dry):
            # a stale closure here would raise SimulationFinished through
            # an unrelated later run() call.
            if finish is not None and until_event is not None \
                    and until_event.callbacks is not None:
                try:
                    until_event.callbacks.remove(finish)
                except ValueError:
                    pass

        if until_event is not None:
            raise SimnetError(
                f"event queue ran dry before {until_event!r} was triggered "
                "(deadlock?)"
            )
        if stop_time is not None:
            clock.advance_to(stop_time)
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Simulator now={self.now!r} queued={len(self._heap)} "
                f"processed={self._events_processed}>")
