"""Simulated processes: generator coroutines driven by the event engine.

A *process* wraps a Python generator.  The generator ``yield``\\ s
:class:`~repro.simnet.events.Event` objects; the engine resumes it with the
event's value (or throws the event's exception into it) once the event is
processed.  Helper routines compose with ``yield from``, which is how every
blocking operation in the Nexus core, the mini-MPI layer, and the climate
model is written.

A :class:`Process` is itself an :class:`Event` that triggers when the
generator finishes, so processes can wait on each other (``yield child``)
— the simulated analogue of a thread join.
"""

from __future__ import annotations

import typing as _t
from types import GeneratorType

from .errors import Interrupt, ProcessError
from .events import Event, PENDING, URGENT

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import Simulator

ProcessGenerator = _t.Generator[Event, object, object]


class Process(Event):
    """A running simulated activity.

    Do not instantiate directly; use :meth:`Simulator.process` (or
    :meth:`Simulator.spawn`, its alias).
    """

    __slots__ = ("gen", "_target", "_interrupts")

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
        super().__init__(sim, name=name or getattr(gen, "__name__", None))
        self.gen = gen
        #: The event this process is currently waiting on (None if runnable).
        self._target: Event | None = None
        self._interrupts: list[Interrupt] = []
        # Kick the process off via an immediately-successful init event.
        init = Event(sim, name=f"init:{self.name}")
        init.callbacks.append(self._resume)  # type: ignore[union-attr]
        init.succeed(None, priority=URGENT)

    # -- introspection ---------------------------------------------------

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    @property
    def target(self) -> Event | None:
        """The event the process is currently suspended on."""
        return self._target

    # -- control ---------------------------------------------------------

    def interrupt(self, cause: object = None) -> None:
        """Raise :class:`Interrupt` inside the process at its current yield.

        Interrupting a finished process is an error.  A process cannot
        interrupt itself (that would re-enter the running generator).
        """
        if not self.is_alive:
            raise ProcessError(f"cannot interrupt finished process {self!r}")
        if self.sim.active_process is self:
            raise ProcessError("a process cannot interrupt itself")
        interrupt = Interrupt(cause)
        self._interrupts.append(interrupt)
        # Detach from the current target (if any) and schedule a resume that
        # throws the interrupt.
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        wakeup = Event(self.sim, name=f"interrupt:{self.name}")
        wakeup.callbacks.append(self._resume)  # type: ignore[union-attr]
        wakeup.succeed(None, priority=URGENT)

    # -- engine interface --------------------------------------------------

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome (engine-internal)."""
        sim = self.sim
        sim._active_process = self
        # Localise the loop-invariant lookups: this method runs once per
        # suspension point of every process, i.e. it is the single hottest
        # function in the whole simulator.  ``_interrupts`` is never
        # rebound (and a process cannot interrupt itself, so it cannot
        # change under our feet while the generator runs).
        gen = self.gen
        interrupts = self._interrupts
        try:
            while True:
                try:
                    if interrupts:
                        interrupt = interrupts.pop(0)
                        target = gen.throw(interrupt)
                    elif event is not None and not event._ok:
                        event._defused = True
                        target = gen.throw(_t.cast(BaseException, event._value))
                    else:
                        target = gen.send(event._value if event is not None else None)
                except StopIteration as stop:
                    if self._value is PENDING:
                        self.succeed(stop.value)
                    return
                except BaseException as exc:
                    if self._value is PENDING:
                        self.fail(exc)
                        return
                    raise

                # Probe the two attributes the rest of the loop needs
                # rather than ``isinstance(target, Event)``: this runs
                # once per suspension of every process.
                try:
                    callbacks = target.callbacks
                    foreign = target.sim is not sim
                except AttributeError:
                    # Misuse: throw a descriptive error into the generator so
                    # the offending yield gets a useful traceback.
                    event = Event(sim, name="bad-yield")
                    event._ok = False
                    event._value = ProcessError(
                        f"process {self.name!r} yielded a non-Event: {target!r}"
                    )
                    continue
                if foreign:
                    event = Event(sim, name="bad-yield")
                    event._ok = False
                    event._value = ProcessError(
                        f"process {self.name!r} yielded an event from a "
                        "different simulator"
                    )
                    continue

                if callbacks is None:
                    # Already processed: loop around with its outcome.
                    event = target
                    continue

                # Genuinely pending (or triggered-but-unprocessed): register
                # and suspend.
                self._target = target
                callbacks.append(self._resume)
                return
        finally:
            sim._active_process = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "alive" if self.is_alive else "finished"
        return f"<Process {self.name!r} {state} at {id(self):#x}>"
