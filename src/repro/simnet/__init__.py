"""repro.simnet — deterministic discrete-event simulation substrate.

This package is the machine the rest of the reproduction runs on: a
from-scratch SimPy-style event engine (:class:`Simulator`, generator
coroutine :class:`Process`\\ es, :class:`Store`/:class:`Resource`
primitives) plus a parallel-machine model (:class:`Host`, :class:`Machine`,
:class:`Partition`, :class:`Network`, :class:`LinkProfile`) standing in for
the paper's IBM SP2 and I-WAY hardware.

Public API::

    from repro.simnet import Simulator, Store, Resource
    from repro.simnet import Host, Machine, Partition, Network, LinkProfile
"""

from .clock import VirtualClock
from .engine import Simulator
from .errors import (
    ClockError,
    EventError,
    ProcessError,
    ScheduleError,
    SimnetError,
)
from .events import AllOf, Event, Timeout
from .faults import FaultPlan
from .link import LinkProfile
from .network import FaultRule, FlakyRule, Machine, Network, Partition, \
    Reservation, WanLink
from .node import Host
from .process import Process
from .random import RandomStreams, derive, derived_generator
from .resources import Resource, Store

__all__ = [
    "AllOf",
    "ClockError",
    "Event",
    "EventError",
    "FaultPlan",
    "FaultRule",
    "FlakyRule",
    "Host",
    "LinkProfile",
    "Machine",
    "Network",
    "Partition",
    "Process",
    "ProcessError",
    "RandomStreams",
    "Reservation",
    "Resource",
    "ScheduleError",
    "SimnetError",
    "Simulator",
    "Store",
    "Timeout",
    "VirtualClock",
    "WanLink",
    "derive",
    "derived_generator",
]
