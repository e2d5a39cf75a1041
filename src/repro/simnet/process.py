"""Simulated processes: generator coroutines driven by the event engine.

A *process* wraps a Python generator.  The generator ``yield``\\ s one of
two things:

* **a delay** in simulated seconds (a ``float``, or any other real
  number but a ``bool``): the process sleeps that long.  A sleep is one
  queue entry and builds no event — every process owns one timer that
  each of its sleeps re-queues.  A negative delay is thrown back into
  the generator as :class:`~repro.simnet.errors.ScheduleError`;
* **an** :class:`~repro.simnet.events.Event`: the engine resumes the
  generator with the event's value (or throws the event's exception
  into it) once the event is processed.  A
  :class:`~repro.simnet.events.Timeout` is the event to yield when a
  callback or a join also watches the same instant.

Helper routines compose with ``yield from``, which is how every
blocking operation in the Nexus core, the mini-MPI layer, and the
climate model is written.

A :class:`Process` is itself an :class:`Event` that triggers when the
generator finishes, so processes can wait on each other (``yield child``)
— the simulated analogue of a thread join.
"""

from __future__ import annotations

import typing as _t
from heapq import heappush
from numbers import Real
from types import GeneratorType

from .errors import ProcessError, ScheduleError
from .events import Event, NORMAL, PENDING, URGENT

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import Simulator

ProcessGenerator = _t.Generator[_t.Union[Event, float], object, object]


class _Timer(Event):
    """A process's own sleep event: successful, with value ``None``.

    The outcome fields are class constants over :class:`Event`'s slots,
    and ``__init__`` is ``object``'s, so ``_Timer()`` runs no Python
    constructor and makes no profiled call.  Only ``sim`` and
    ``callbacks`` are per instance."""

    __slots__ = ()
    __init__ = object.__init__
    _value = None
    _ok = True
    _defused = False
    name = None


def _refusal(sim: "Simulator", error: BaseException) -> Event:
    """A failed, unqueued event that throws ``error`` at the yield."""
    event = Event(sim, name="bad-yield")
    event._ok = False
    event._value = error
    return event


class Process(Event):
    """A running simulated activity.

    Do not instantiate directly; use :meth:`Simulator.process` (or
    :meth:`Simulator.spawn`, its alias).
    """

    __slots__ = ("gen", "_timer", "_wake")

    def __init__(self, sim: "Simulator", gen: ProcessGenerator,
                 name: str | None = None):
        # A real generator is the common case (one process is spawned
        # per message in flight): only other objects pay the probes.
        if gen.__class__ is not GeneratorType and (
                not hasattr(gen, "send") or not hasattr(gen, "throw")):
            raise ProcessError(
                f"Process body must be a generator, got {type(gen).__name__}; "
                "did you forget to call the generator function, or is the "
                "function missing a yield?"
            )
        # Flattened Event.__init__: one process is spawned per message
        # in flight.
        self.sim = sim
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self.name = name or getattr(gen, "__name__", None)
        self.gen = gen
        # The one event every sleep of this process re-queues.  Its
        # callbacks are ``_wake``, re-bound on each push; the run loop
        # sets the attribute to ``None`` and never touches the list.
        # Reuse is safe because a suspended process is resumed only by
        # what it yielded.  The start is the timer's first push, ahead
        # of NORMAL events at this instant.
        timer = self._timer = _Timer()
        timer.sim = sim
        timer.callbacks = self._wake = [self._resume]
        seq = sim._seq + 1
        sim._seq = seq
        heappush(sim._heap, (sim._now, URGENT, seq, timer))

    # -- introspection ---------------------------------------------------

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    # -- engine interface --------------------------------------------------

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome (engine-internal)."""
        # Localise the loop-invariant lookups: this method runs once per
        # suspension point of every process, i.e. it is the single hottest
        # function in the whole simulator.
        sim = self.sim
        gen = self.gen
        while True:
            try:
                if not event._ok:
                    event._defused = True
                    target = gen.throw(_t.cast(BaseException, event._value))
                else:
                    target = gen.send(event._value)
            except StopIteration as stop:
                # ``_wake`` holds a bound ``_resume``: drop the cycle so
                # a finished process is freed by reference counting.
                self._wake = None
                if self._value is PENDING:
                    self.succeed(stop.value)
                return
            except BaseException as exc:
                if self._value is PENDING:
                    self._wake = None
                    self.fail(exc)
                    return
                raise

            if target.__class__ is float:
                delay = target
            else:
                # Probe the two attributes the rest of the loop needs
                # rather than ``isinstance(target, Event)``: this runs
                # once per suspension of every process.
                try:
                    callbacks = target.callbacks
                    foreign = target.sim is not sim
                except AttributeError:
                    if isinstance(target, bool) or not isinstance(
                            target, Real):
                        # Misuse: throw a descriptive error into the
                        # generator so the offending yield gets a useful
                        # traceback.
                        event = _refusal(sim, ProcessError(
                            f"process {self.name!r} yielded a non-Event: "
                            f"{target!r} (a sleep yields a real number)"))
                        continue
                    # An int or a numpy scalar: the clock stays a float.
                    delay = float(target)
                else:
                    if foreign:
                        event = _refusal(sim, ProcessError(
                            f"process {self.name!r} yielded an event from "
                            "a different simulator"))
                        continue
                    if callbacks is None:
                        # Already processed: loop around with its outcome.
                        event = target
                        continue
                    # Genuinely pending (or triggered-but-unprocessed):
                    # register and suspend.  The first waiter brings its
                    # own list, which costs no call.
                    if callbacks:
                        callbacks.append(self._resume)
                    else:
                        target.callbacks = [self._resume]
                    return

            if delay < 0:
                event = _refusal(sim, ScheduleError(
                    f"negative timeout delay {target!r}"))
                continue
            timer = self._timer
            timer.callbacks = self._wake
            seq = sim._seq + 1
            sim._seq = seq
            heappush(sim._heap, (sim._now + delay, NORMAL, seq, timer))
            return

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "alive" if self.is_alive else "finished"
        return f"<Process {self.name!r} {state} at {id(self):#x}>"
