"""Events: the synchronisation primitive of the discrete-event engine.

An :class:`Event` is a one-shot condition that simulated processes can wait
on by ``yield``-ing it.  Events move through three states:

* *pending* — created but not yet triggered;
* *triggered* — :meth:`Event.succeed` or :meth:`Event.fail` has been called
  and the event is queued for processing by the simulator;
* *processed* — the simulator has invoked the event's callbacks (which is
  what resumes waiting processes).

A *scheduled* event may additionally be :meth:`cancel`-led: the engine
then discards it when it reaches the head of the queue (lazy deletion —
see :mod:`repro.simnet.engine`) without advancing the clock, running
callbacks, or counting it as a processed event.

The design follows the classic SimPy shape but is implemented from scratch
and trimmed to what the Nexus reproduction needs: plain events, timeouts,
and ``AllOf``/``AnyOf`` condition events.  Constructors are deliberately
flat (no ``super().__init__`` chains on the hot path) because the
simulator allocates hundreds of thousands of these per run.
"""

from __future__ import annotations

import typing as _t
from heapq import heappush

from .errors import EventError, ScheduleError

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import Simulator

#: Sentinel for "event has not been triggered yet".
PENDING = object()

#: Scheduling priorities.  Lower values are processed first among events
#: scheduled for the same simulated instant.
URGENT = 0
NORMAL = 1
LOW = 2


class Event:
    """A one-shot occurrence that processes may wait for.

    Parameters
    ----------
    sim:
        The owning :class:`~repro.simnet.engine.Simulator`.
    name:
        Optional debugging label shown in ``repr``.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_scheduled",
                 "_defused", "_cancelled", "name")

    def __init__(self, sim: "Simulator", name: str | None = None):
        self.sim = sim
        #: Callables invoked (with this event) when the event is processed.
        #: Set to ``None`` once processed: appending afterwards is an error.
        self.callbacks: list[_t.Callable[["Event"], None]] | None = []
        self._value: object = PENDING
        self._ok: bool | None = None
        self._scheduled = False
        self._defused = False
        self._cancelled = False
        self.name = name

    # -- state ----------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the simulator has run this event's callbacks."""
        return self.callbacks is None

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called."""
        return self._cancelled

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise EventError(f"{self!r} has not been triggered yet")
        return self._ok

    @property
    def value(self) -> object:
        """The value the event was triggered with (or its exception)."""
        if self._value is PENDING:
            raise EventError(f"{self!r} has not been triggered yet")
        return self._value

    # -- triggering -----------------------------------------------------

    def succeed(self, value: object = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``.

        Waiting processes resume with ``value`` as the result of their
        ``yield``.  Returns ``self`` for chaining.
        """
        if self._value is not PENDING:
            raise EventError(f"{self!r} has already been triggered")
        if self._cancelled:
            raise EventError(f"{self!r} has been cancelled")
        if self._scheduled:
            raise ScheduleError(f"{self!r} is already scheduled")
        self._ok = True
        self._value = value
        self._scheduled = True
        sim = self.sim
        seq = sim._seq + 1
        sim._seq = seq
        heappush(sim._heap, (sim._clock._now, priority, seq, self))
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event as failed with ``exception``.

        Waiting processes see ``exception`` raised at their ``yield``.  If
        *nothing* is waiting when the failure is processed, the exception is
        re-raised by the simulator (unless :meth:`defused` is set) so that
        failures cannot silently vanish.
        """
        if self._value is not PENDING:
            raise EventError(f"{self!r} has already been triggered")
        if self._cancelled:
            raise EventError(f"{self!r} has been cancelled")
        if not isinstance(exception, BaseException):
            raise EventError(f"fail() needs an exception, got {exception!r}")
        if self._scheduled:
            raise ScheduleError(f"{self!r} is already scheduled")
        self._ok = False
        self._value = exception
        self._scheduled = True
        sim = self.sim
        seq = sim._seq + 1
        sim._seq = seq
        heappush(sim._heap, (sim._clock._now, priority, seq, self))
        return self

    def cancel(self) -> bool:
        """Lazily cancel a *scheduled* event (typically a timeout).

        The queue entry is left in place and discarded when it surfaces
        (lazy deletion): no heap re-sift, no callbacks, no clock advance,
        and no contribution to ``events_processed``.  Returns True if the
        event was cancelled by this call, False if it was already
        processed (too late) or already cancelled.  Cancelling an event
        that was never scheduled is an error — there is nothing queued to
        discard.

        The caller owns the consequences: processes still waiting on a
        cancelled event are never resumed by it.
        """
        if self.callbacks is None or self._cancelled:
            return False
        if not self._scheduled:
            raise EventError(f"cannot cancel unscheduled {self!r}")
        self._cancelled = True
        self.sim._note_cancelled()
        return True

    def defuse(self) -> None:
        """Mark a failed event as handled so the simulator won't re-raise."""
        self._defused = True

    @property
    def defused(self) -> bool:
        return self._defused

    # -- composition ----------------------------------------------------

    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.sim, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.sim, [self, other])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = self.name or self.__class__.__name__
        state = (
            "cancelled" if self._cancelled else
            "processed" if self.processed else
            "triggered" if self.triggered else "pending"
        )
        return f"<{label} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers automatically after a fixed delay.

    Created via :meth:`Simulator.timeout`; ``yield sim.timeout(d)`` suspends
    the current process for ``d`` simulated seconds.  :meth:`at` (reached
    through :meth:`Simulator.timeout_at`) names the instant instead.
    """

    __slots__ = ("delay",)

    # ``name`` precedes ``priority`` so that the positional order matches
    # the documented ``Simulator.timeout(delay, value=None, name=None)``,
    # which reaches this constructor through a ``functools.partial``.
    def __init__(self, sim: "Simulator", delay: float, value: object = None,
                 name: str | None = None, priority: int = NORMAL):
        if delay < 0:
            raise ScheduleError(f"negative timeout delay {delay!r}")
        # Flattened Event.__init__ — this constructor runs once per
        # simulated delay, i.e. hundreds of thousands of times per run.
        # A fresh timeout cannot already be scheduled and the delay was
        # validated above, so the only remaining work is the queue entry.
        self.sim = sim
        self.callbacks = []
        self._ok = True
        self._value = value
        self._scheduled = True
        self._defused = False
        self._cancelled = False
        self.name = name
        delay = self.delay = float(delay)
        seq = sim._seq + 1
        sim._seq = seq
        heappush(sim._heap, (sim._clock._now + delay, priority, seq, self))

    @classmethod
    def at(cls, sim: "Simulator", when: float, value: object = None,
           name: str | None = None) -> "Timeout":
        """A timeout that fires at the absolute simulated time ``when``.

        ``Timeout(sim, when - now)`` is not the same thing: the engine
        would schedule it at ``now + (when - now)``, which floating point
        does not promise to be ``when``.  A caller that has computed an
        instant by other means (a sum of many small costs, say) and needs
        the clock to read exactly that value uses this constructor.
        """
        when = float(when)
        now = sim._clock._now
        if not when >= now:  # also rejects NaN
            raise ScheduleError(
                f"timeout at {when!r} is in the past (now={now!r})")
        self = cls.__new__(cls)
        Event.__init__(self, sim, name)
        self._ok = True
        self._value = value
        self._scheduled = True
        self.delay = when - now
        seq = sim._seq + 1
        sim._seq = seq
        heappush(sim._heap, (when, NORMAL, seq, self))
        return self


class ConditionValue:
    """Mapping-like result of a condition event.

    Maps each *triggered* constituent event to its value, preserving the
    order events were given in.
    """

    __slots__ = ("events",)

    def __init__(self, events: list[Event]):
        self.events = events

    def __getitem__(self, event: Event) -> object:
        if event not in self.events:
            raise KeyError(repr(event))
        return event.value

    def __contains__(self, event: Event) -> bool:
        return event in self.events

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> _t.Iterator[Event]:
        return iter(self.events)

    def values(self) -> list[object]:
        """Values of the triggered events, in constituent order."""
        return [e.value for e in self.events]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConditionValue):
            return self.events == other.events
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{e!r}: {e.value!r}" for e in self.events)
        return f"<ConditionValue {{{inner}}}>"


class Condition(Event):
    """An event that triggers when a predicate over child events holds.

    Children that fail cause the condition itself to fail with the same
    exception (and the child is defused, since the condition now owns it).
    """

    __slots__ = ("_events", "_check", "_done")

    def __init__(self, sim: "Simulator", check: _t.Callable[[int, int], bool],
                 events: _t.Iterable[Event], name: str | None = None):
        super().__init__(sim, name=name)
        self._events = list(events)
        self._check = check
        #: Count of processed children — kept incrementally so each child
        #: completion is O(1) instead of a rescan of every constituent.
        self._done = 0
        for event in self._events:
            if event.sim is not sim:
                raise EventError("condition mixes events from different simulators")

        if not self._events:
            self.succeed(ConditionValue([]))
            return

        for event in self._events:
            if event.callbacks is None:
                self._on_child(event)
            else:
                event.callbacks.append(self._on_child)

    def _done_children(self) -> list[Event]:
        # Processed, not merely triggered: a Timeout carries its value from
        # creation, so "value decided" must not count as "has occurred".
        return [e for e in self._events if e.callbacks is None]

    def _on_child(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        if not event._ok:
            event.defuse()
            self.fail(_t.cast(BaseException, event.value))
            return
        self._done += 1
        if self._check(len(self._events), self._done):
            self.succeed(ConditionValue(self._done_children()))


class AllOf(Condition):
    """Triggers when *all* constituent events have triggered."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: _t.Iterable[Event],
                 name: str | None = None):
        super().__init__(sim, lambda total, done: done == total, events, name=name)


class AnyOf(Condition):
    """Triggers when *any* constituent event has triggered."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: _t.Iterable[Event],
                 name: str | None = None):
        super().__init__(sim, lambda total, done: done >= 1, events, name=name)
