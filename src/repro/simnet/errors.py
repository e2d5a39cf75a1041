"""Exception hierarchy for the :mod:`repro.simnet` discrete-event engine."""

from __future__ import annotations


class SimnetError(Exception):
    """Base class for all simulation-engine errors."""


class ScheduleError(SimnetError):
    """An event could not be scheduled (negative delay, re-schedule, ...)."""


class EventError(SimnetError):
    """Illegal operation on an :class:`~repro.simnet.events.Event`."""


class ProcessError(SimnetError):
    """Illegal operation on a simulated process."""


class SimulationFinished(SimnetError):
    """Internal signal used by :meth:`Simulator.run` to stop the event loop."""

    def __init__(self, value: object = None):
        super().__init__(value)
        self.value = value
