"""Events: the synchronisation primitive of the discrete-event engine.

An :class:`Event` is a one-shot condition that simulated processes can wait
on by ``yield``-ing it.  Events move through three states:

* *pending* — created but not yet triggered;
* *triggered* — :meth:`Event.succeed` or :meth:`Event.fail` has been called
  and the event is queued for processing by the simulator;
* *processed* — the simulator has invoked the event's callbacks (which is
  what resumes waiting processes).

The design follows the classic SimPy shape but is implemented from scratch
and trimmed to what the Nexus reproduction needs: plain events, timeouts,
and the :class:`AllOf` join.  Constructors are deliberately
flat (no ``super().__init__`` chains on the hot path) because the
simulator allocates hundreds of thousands of these per run.  The
commonest wait builds none: a process sleeps by yielding its delay.
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

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused", "name")

    def __init__(self, sim: "Simulator", name: str | None = None):
        self.sim = sim
        #: Callables invoked (with this event) when the event is processed.
        #: Set to ``None`` once processed: appending afterwards is an error.
        self.callbacks: list[_t.Callable[["Event"], None]] | None = []
        self._value: object = PENDING
        self._ok: bool | None = None
        self._defused = False
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
        self._ok = True
        self._value = value
        sim = self.sim
        seq = sim._seq + 1
        sim._seq = seq
        heappush(sim._heap, (sim._now, priority, seq, self))
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
        if not isinstance(exception, BaseException):
            raise EventError(f"fail() needs an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        sim = self.sim
        seq = sim._seq + 1
        sim._seq = seq
        heappush(sim._heap, (sim._now, priority, seq, self))
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so the simulator won't re-raise."""
        self._defused = True

    @property
    def defused(self) -> bool:
        return self._defused

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = self.name or self.__class__.__name__
        state = ("processed" if self.processed else
                 "triggered" if self.triggered else "pending")
        return f"<{label} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers automatically after a fixed delay.

    Created via ``Simulator.timeout``.  It is the event to use when a
    callback, a join or ``run(until=)`` watches the instant; a process
    that only sleeps yields the delay itself (``yield d``), which
    queues its own reused timer and builds no event.  Yielding a
    ``Timeout`` stays legal and orders the same.  :meth:`at` (reached
    through :meth:`Simulator.timeout_at`) names the instant instead.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: object = None,
                 name: str | None = None, priority: int = NORMAL):
        """Schedule the event ``delay`` seconds from now.

        ``Simulator.timeout`` is ``functools.partial(Timeout, sim)``, so
        ``sim.timeout(delay, value=None, name=None)`` is this signature
        less ``sim``; ``name`` precedes ``priority`` to keep that
        positional order."""
        if delay < 0:
            raise ScheduleError(f"negative timeout delay {delay!r}")
        # Flattened Event.__init__ — this constructor runs once per
        # simulated delay, i.e. hundreds of thousands of times per run.
        # The delay was validated above, so the only remaining work is
        # the queue entry.
        self.sim = sim
        self.callbacks = []
        self._ok = True
        self._value = value
        self._defused = False
        self.name = name
        delay = float(delay)
        seq = sim._seq + 1
        sim._seq = seq
        heappush(sim._heap, (sim._now + delay, priority, seq, self))

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
        now = sim._now
        if not when >= now:  # also rejects NaN
            raise ScheduleError(
                f"timeout at {when!r} is in the past (now={now!r})")
        self = cls.__new__(cls)
        Event.__init__(self, sim, name)
        self._ok = True
        self._value = value
        seq = sim._seq + 1
        sim._seq = seq
        heappush(sim._heap, (when, NORMAL, seq, self))
        return self


class AllOf(Event):
    """A join: triggers, with value ``None``, once every event in
    ``events`` has been processed.

    It counts *processed* children, not merely triggered ones: a
    :class:`Timeout` carries its value from creation, so "value decided"
    must not count as "has occurred".  A child that fails makes the join
    fail with the same exception (and the child is defused, since the
    join now owns it); later children do nothing.
    """

    __slots__ = ("_remaining",)

    def __init__(self, sim: "Simulator", events: _t.Iterable[Event],
                 name: str | None = None):
        super().__init__(sim, name=name)
        events = list(events)
        for event in events:
            if event.sim is not sim:
                raise EventError("join mixes events from different simulators")
        self._remaining = len(events)
        if not events:
            self.succeed()
            return
        for event in events:
            if event.callbacks is None:
                self._on_child(event)
            else:
                event.callbacks.append(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        if not event._ok:
            event._defused = True
            self.fail(_t.cast(BaseException, event._value))
            return
        self._remaining -= 1
        if not self._remaining:
            self.succeed()
