"""Communication-module interface (the paper's Figure 2 machinery).

A *communication module* implements one low-level communication method.
Per the paper, each module exposes a standard interface — initialisation,
descriptor construction, communication functions — accessed through a
*function table* so that many modules coexist in one executable.  In this
Python reproduction the function table is simply the
:class:`Transport` object itself (its bound methods *are* the table); the
:class:`~repro.transports.registry.TransportRegistry` plays the role of
module loading.

Key types:

* :class:`Descriptor` — what a context publishes about how to reach it via
  one method ("communication descriptor"): method name, context id, plus
  method-specific parameters (e.g. MPL's node number and session id).
* :class:`WireMessage` — the RSR envelope that actually travels.
* :class:`Transport` — the module ABC: applicability checks, comm-object
  state construction, ``send`` and ``collect``.

Transports are written against a narrow structural view of a Nexus
context (:class:`ContextLike`) to keep the layering acyclic: transports
sit *below* :mod:`repro.core` yet must deliver into contexts.
"""

from __future__ import annotations

import abc
import dataclasses
import typing as _t

from ..simnet.resources import Store
from .costmodels import RuntimeCosts, TransportCosts
from .errors import TransportError

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..obs import MessageTrace
    from ..obs.metrics import MetricsRegistry
    from ..simnet.engine import Simulator
    from ..simnet.network import Network
    from ..simnet.node import Host
    from ..simnet.random import RandomStreams


@dataclasses.dataclass(frozen=True)
class Descriptor:
    """A communication descriptor: how to reach one context via one method.

    ``params`` is a tuple of key/value pairs (not a dict) so descriptors
    are hashable and their wire form is canonical.
    """

    method: str
    context_id: int
    params: tuple[tuple[str, object], ...] = ()

    def param(self, key: str, default: object = None) -> object:
        for k, v in self.params:
            if k == key:
                return v
        return default

    def with_param(self, key: str, value: object) -> "Descriptor":
        """A copy with ``key`` set (replacing an existing value)."""
        params = tuple((k, v) for k, v in self.params if k != key)
        return dataclasses.replace(self, params=params + ((key, value),))

    @property
    def wire_size(self) -> int:
        """Approximate serialised size in bytes (descriptor tables travel
        with startpoints; the paper notes they cost "a few tens of bytes")."""
        size = 8 + len(self.method)
        for k, v in self.params:
            size += len(k) + (len(str(v)) if not isinstance(v, (int, float)) else 8)
        return size

    def to_wire(self) -> tuple:
        return (self.method, self.context_id, self.params)

    @classmethod
    def from_wire(cls, wire: tuple) -> "Descriptor":
        method, context_id, params = wire
        return cls(method=method, context_id=context_id,
                   params=tuple((k, v) for k, v in params))


@dataclasses.dataclass(slots=True)
class WireMessage:
    """The RSR envelope as it travels over a transport.

    ``payload`` is opaque to the transport (the core layer packs a
    :class:`repro.core.buffers.Buffer`); ``nbytes`` is the wire size
    including the Nexus header.
    """

    handler: str
    endpoint_id: int
    src_context: int
    dst_context: int
    payload: object
    nbytes: int
    method: str = ""
    sent_at: float = 0.0
    arrived_at: float = 0.0
    headers: dict[str, object] = dataclasses.field(default_factory=dict)
    #: Observability state (:class:`repro.obs.MessageTrace`); ``None``
    #: whenever tracing is disabled, so instrumentation sites reduce to
    #: one attribute load and a branch.
    trace: "MessageTrace | None" = dataclasses.field(
        default=None, repr=False, compare=False)


@dataclasses.dataclass(slots=True)
class InTransitMessage:
    """A message that has reached the destination *device* but has not yet
    been drained to user space (fast-transport receive model)."""

    message: WireMessage
    arrival_start: float
    ready_at: float
    foreign_at_arrival: float


class TransportServices:
    """What the runtime hands every transport at construction time.

    ``resolve_context`` is installed by the runtime once contexts exist;
    it maps a context id to the live context object so transports can
    route by id (the only form of addressing that travels on the wire).
    ``streams`` is the runtime's :class:`~repro.simnet.random.RandomStreams`;
    a transport that draws takes its own named substream from it on
    first use, so a run that never draws never mints one.
    """

    def __init__(self, sim: "Simulator", network: "Network",
                 metrics: "MetricsRegistry", streams: "RandomStreams",
                 runtime_costs: RuntimeCosts):
        self.sim = sim
        self.network = network
        self.metrics = metrics
        self.streams = streams
        #: The Nexus-layer cost constants (drain-overlap factor etc.).
        self.runtime_costs = runtime_costs
        self.resolve_context: _t.Callable[[int], "ContextLike"] | None = None

    def context(self, context_id: int) -> "ContextLike":
        if self.resolve_context is None:
            raise TransportError(
                "transport services have no context resolver installed"
            )
        return self.resolve_context(context_id)


@_t.runtime_checkable
class ContextLike(_t.Protocol):
    """The slice of a Nexus context that transports interact with."""

    id: int
    name: str
    host: "Host"
    foreign_poll_total: float
    device_busy: dict[str, float]

    def inbox(self, method: str) -> Store: ...
    def device_queue(self, method: str) -> list[InTransitMessage]: ...


class ReceiveLane(_t.Protocol):
    """One method's receive containers at one context.

    A caller that polls the same method at the same context over and over
    (the poll manager's per-method lane record) hands this to
    ``collect`` so the drain reads two attributes instead of looking the
    containers up by method name on every poll."""

    #: The method's device queue at the context (``receiver_drain``
    #: transports), else ``None``.
    queue: list[InTransitMessage] | None
    #: The method's inbox at the context (kernel-buffered transports),
    #: else ``None``.
    inbox: Store | None


class Transport(abc.ABC):
    """Base class for communication modules.

    Subclasses define class attributes ``name`` and ``speed_rank`` (lower
    rank = faster method; descriptor tables are ordered by rank to realise
    the paper's "fastest first" automatic selection policy) and implement
    the four abstract methods core calls: ``export_descriptor``,
    ``applicable``, ``send`` and ``collect`` (``open`` has a default).
    Polling is core's: the poll manager charges each method's
    ``poll_cost`` and then calls its ``collect``.
    """

    #: Module name; also the descriptor ``method`` field.
    name: _t.ClassVar[str]
    #: Ordering key for fastest-first descriptor tables (lower = faster).
    speed_rank: _t.ClassVar[int]
    #: Delivery model.  ``True``: arrivals wait in the destination's
    #: *device queue* until a poll drains them (the fast family);
    #: ``False``: they land in its kernel-buffer *inbox* (the IP family).
    #: A transport delivers into exactly one of the two.
    receiver_drain: _t.ClassVar[bool] = False

    def __init__(self, services: TransportServices, costs: TransportCosts):
        self.services = services
        self.costs = costs
        #: The simulator, cached as a plain attribute: ``services.sim``
        #: is fixed for the life of the runtime and transports touch it
        #: on every send/poll, so a property frame here is pure cost.
        self.sim = services.sim
        #: Likewise the network: its fault rules are consulted per send.
        self.network: "Network" = services.network
        self.messages_sent = 0
        self.bytes_sent = 0
        self.messages_dropped = 0
        self.bytes_dropped = 0

    # -- convenience -------------------------------------------------------

    @property
    def wire_method(self) -> str:
        """The method name used for wire-level lookups (switch profiles,
        per-transport WAN links).  Normally ``self.name``; aliased
        transports — e.g. a compression stack riding TCP — override it
        so their traffic uses the underlying wire."""
        return getattr(self, "_wire_method", self.name)

    # -- interface ------------------------------------------------------------

    @abc.abstractmethod
    def export_descriptor(self, context: ContextLike) -> Descriptor | None:
        """The descriptor ``context`` publishes for this method, or ``None``
        if this method cannot possibly reach ``context``."""

    @abc.abstractmethod
    def applicable(self, local: ContextLike, descriptor: Descriptor,
                   remote_host: "Host") -> bool:
        """Can ``local`` use this method to reach the descriptor's context?

        This is the method-specific criterion of Section 3.2 (e.g. MPL
        requires both contexts in the same SP partition & session).
        """

    def open(self, local: ContextLike, descriptor: Descriptor
             ) -> "dict[str, object]":
        """Construct communication-object state for a new connection.

        Returns a mutable state dict stored in the comm object.  The base
        implementation records the (one-time) connect cost which the comm
        object charges on first use.
        """
        return {"connect_cost": self.costs.connect_cost, "connected": False}

    @abc.abstractmethod
    def send(self, local: ContextLike, state: dict, descriptor: Descriptor,
             message: WireMessage):
        """Generator: transmit ``message``; resumes when the sender may
        continue (asynchronous RSR semantics — *not* when delivered)."""

    @abc.abstractmethod
    def collect(self, context: ContextLike,
                lane: ReceiveLane | None = None) -> list[WireMessage]:
        """Take every message this method can deliver at ``context`` now.

        The receive half of the function table, as the poll manager
        drives it: the caller has already charged this method's poll
        cost, so ``collect`` costs nothing and never advances the clock.
        ``lane``, if given, holds this method's receive containers at
        ``context``; without one the method looks them up.  An empty
        container yields ``[]`` and leaves ``context`` untouched.
        """

    # -- shared helpers -----------------------------------------------------

    def _destination(self, descriptor: Descriptor) -> "ContextLike":
        """Resolve the live destination context of a descriptor."""
        return self.services.context(descriptor.context_id)

    def traffic(self) -> tuple[int, int, int, int]:
        """This method's wire traffic: ``(messages_sent, bytes_sent,
        messages_dropped, bytes_dropped)``."""
        return (self.messages_sent, self.bytes_sent,
                self.messages_dropped, self.bytes_dropped)

    def record_send(self, message: WireMessage) -> None:
        self.messages_sent += 1
        self.bytes_sent += message.nbytes

    def record_drop(self, message: WireMessage | None = None,
                    nbytes: int | None = None) -> None:
        """Account one dropped message (byte-accurate), closing its
        lifecycle trace if it carries one."""
        if nbytes is None:
            nbytes = message.nbytes if message is not None else 0
        self.messages_dropped += 1
        self.bytes_dropped += nbytes
        if message is not None and message.trace is not None:
            message.trace.drop()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} sent={self.messages_sent}>"
