"""Nexus contexts: address spaces / virtual processors.

"We refer to an address space, or virtual processor, as a *context*."
A context owns handlers, endpoints, startpoints, its communication
descriptor table (the methods by which it can be reached), per-method
message inboxes and device queues, the comm-object cache, and a
:class:`~repro.core.polling.PollManager`.
"""

from __future__ import annotations

import itertools
import typing as _t

from ..simnet.events import PENDING, Event
from ..simnet.resources import Store
from ..transports.base import Descriptor, InTransitMessage, WireMessage
from .buffers import Buffer
from .commobject import CommObject, comm_object_key
from .descriptor_table import CommDescriptorTable
from .endpoint import Endpoint
from .errors import HandlerError, NexusError
from .health import HealthTracker
from .polling import PollManager
from .selection import SelectionPolicy
from .startpoint import Startpoint, WireStartpoint

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..simnet.node import Host
    from .runtime import Nexus

_context_ids = itertools.count(1)

#: Handler signature: (context, endpoint, buffer) -> None | generator.
#: Returning a generator makes the handler *threaded*: it is spawned as a
#: simulated process and may itself block (issue RSRs, wait, compute).
Handler = _t.Callable[["Context", Endpoint | None, Buffer], object]


class Context:
    """One address space participating in a Nexus computation.

    Do not instantiate directly; use :meth:`Nexus.context`.
    """

    def __init__(self, nexus: "Nexus", host: "Host", name: str,
                 methods: _t.Sequence[str] | None = None):
        self.id: int = next(_context_ids)
        self.nexus = nexus
        self.host = host
        self.name = name
        self.handlers: dict[str, Handler] = {}
        self.endpoints: dict[int, Endpoint] = {}

        self._export_table = self._build_export_table(methods)
        self._inboxes: dict[str, Store] = {}
        self._device_queues: dict[str, list[InTransitMessage]] = {}
        #: Per-method device-busy horizon (fast-transport FIFO drain).
        self.device_busy: dict[str, float] = {}
        #: Monotone accumulator of device-stealing poll time (see
        #: :mod:`repro.transports.fastbase`).
        self.foreign_poll_total: float = 0.0

        self.poll_manager = PollManager(self, self._export_table.methods)
        #: Per-(remote context, method) delivery health (failover ladder).
        self.health = HealthTracker(nexus.sim, nexus.health_config)
        self._comm_objects: dict[tuple, CommObject] = {}
        self._arrival_waiters: list[Event] = []
        self._arrival_name = f"arrival@ctx{self.id}"
        #: Installed by :class:`repro.core.forwarding.ForwardingService`
        #: on the designated forwarder context.
        self.forwarder: object | None = None
        self.rsrs_dispatched = 0

    # -- descriptor table -----------------------------------------------------

    def _build_export_table(self, methods: _t.Sequence[str] | None
                            ) -> CommDescriptorTable:
        registry = self.nexus.transports
        wanted = list(methods) if methods is not None else registry.names()
        descriptors = []
        for name in wanted:
            if name not in registry:
                raise NexusError(
                    f"context {self.name!r} requests transport {name!r} "
                    "which is not enabled in this runtime"
                )
            descriptor = registry.get(name).export_descriptor(self)
            if descriptor is not None:
                descriptors.append(descriptor)
        # Fastest-first ordering realises the automatic fastest-first policy.
        return CommDescriptorTable(sorted(
            descriptors, key=lambda d: registry.get(d.method).speed_rank))

    def export_table(self) -> CommDescriptorTable:
        """This context's published table (a value: rebinding
        ``_export_table`` reaches later binds only; polling unaffected)."""
        return self._export_table

    # -- handlers ------------------------------------------------------------

    def register_handler(self, name: str, handler: Handler) -> None:
        """Register ``handler`` under ``name`` for incoming RSRs."""
        self.handlers[name] = handler

    def unregister_handler(self, name: str) -> None:
        self.handlers.pop(name, None)

    # -- endpoints & startpoints ------------------------------------------------

    def new_endpoint(self, bound_object: object = None) -> Endpoint:
        """Create an endpoint in this context (optionally bound to a
        local object, making linked startpoints global pointers to it)."""
        endpoint = Endpoint(self, bound_object)
        self.endpoints[endpoint.id] = endpoint
        return endpoint

    def destroy_endpoint(self, endpoint: Endpoint) -> None:
        self.endpoints.pop(endpoint.id, None)

    def new_startpoint(self, policy: SelectionPolicy | None = None
                       ) -> Startpoint:
        """Create an unbound startpoint owned by this context."""
        return Startpoint(self, policy=policy)

    def startpoint_to(self, endpoint: Endpoint,
                      policy: SelectionPolicy | None = None) -> Startpoint:
        """Convenience: a startpoint already bound to ``endpoint``."""
        return self.new_startpoint(policy=policy).bind(endpoint)

    def import_startpoint(self, wire: WireStartpoint,
                          policy: SelectionPolicy | None = None) -> Startpoint:
        """Receive a startpoint copied from another context.

        Mirrors the original's links; each link carries the serialised
        descriptor table (or, for lightweight startpoints, the referenced
        context's default table — the paper's optimisation for tightly
        coupled systems where a default table is "used repeatedly").
        """
        startpoint = Startpoint(self, policy=policy)
        for link in wire.links:
            if link.table_wire is not None:
                table = CommDescriptorTable.from_wire(link.table_wire)
            else:
                table = self.nexus.default_table_for(link.context_id)
            startpoint.bind_address(link.context_id, link.endpoint_id, table)
            # Mobile startpoints carry the sender's health view: methods
            # it saw down get seeded down here too (a cool-off probe will
            # re-check them from this side).
            for method in getattr(link, "down_methods", ()):
                self.health.mark_down(link.context_id, method)
        self.nexus.obs.metrics.counter("nexus.startpoints_imported").inc()
        return startpoint

    # -- comm objects ----------------------------------------------------------------

    def comm_object_for(self, descriptor: Descriptor) -> CommObject:
        """The shared comm object for ``descriptor`` (created on demand).

        "Communication objects are shared among startpoints that
        reference the same context and use the same communication
        method."
        """
        key = comm_object_key(descriptor)
        comm = self._comm_objects.get(key)
        if comm is None:
            transport = self.nexus.transports.get(descriptor.method)
            comm = CommObject(self, transport, descriptor)
            self._comm_objects[key] = comm
        return comm

    # -- transport-facing surface (ContextLike) ------------------------------------

    def inbox(self, method: str) -> Store:
        store = self._inboxes.get(method)
        if store is None:
            store = Store(self.nexus.sim, name=f"inbox:{method}@ctx{self.id}")
            self._inboxes[method] = store
        return store

    def device_queue(self, method: str) -> list[InTransitMessage]:
        queue = self._device_queues.get(method)
        if queue is None:
            queue = []
            self._device_queues[method] = queue
        return queue

    def note_arrival(self) -> None:
        """Wake any process fast-forwarding through an idle wait."""
        waiters, self._arrival_waiters = self._arrival_waiters, []
        for event in waiters:
            if event._value is PENDING:  # not yet triggered
                event.succeed()

    def arrival_signal(self) -> Event:
        """A one-shot event triggered at the next message arrival."""
        event = Event(self.nexus.sim, self._arrival_name)
        self._arrival_waiters.append(event)
        return event

    # -- time accounting --------------------------------------------------------------

    def charge(self, seconds: float):
        """Generator: consume ``seconds`` of this context's (virtual) CPU."""
        if seconds > 0:
            yield seconds

    # -- receive path ------------------------------------------------------------------

    def dispatch(self, message: WireMessage):
        """Generator: decode one arrived RSR and run its handler.

        Charges the Nexus dispatch cost plus the transport's per-message
        receive overhead.  Handlers returning a generator run as a new
        simulated process (threaded handler); plain handlers run inline.
        Messages addressed to another context are passed to the
        forwarding service if one is installed here.
        """
        if message.dst_context not in (self.id, -1):
            if self.forwarder is None:
                raise NexusError(
                    f"context {self.id} received a message for context "
                    f"{message.dst_context} but is not a forwarder"
                )
            yield from self.forwarder.forward(self, message)  # type: ignore[attr-defined]
            return

        nexus = self.nexus
        trace = message.trace
        if trace is not None:
            trace.transition("dispatch", ctx=self.id,
                             handler=message.handler)
        costs = nexus.runtime_costs.dispatch_cost
        # Lookups by subscript (dispatch runs once per message; a
        # ``.get`` is one more call).  A message no transport carried
        # (``method`` unset) pays no receive overhead.
        try:
            tc = nexus.transports._transports[message.method].costs
        except KeyError:
            pass
        else:
            costs += tc.recv_overhead + tc.per_byte_recv * message.nbytes
        headers = message.headers
        if headers:
            # Receive-side CPU deposited by protocol layers (decompression,
            # checksum verification, reassembly).
            costs += headers.pop("extra_recv_cpu", 0.0)  # type: ignore[operator]
        if self.host.attributes:
            # Only a host that declares attributes can declare an arch.
            costs += self._conversion_cost(message)
        if costs > 0:
            # Inlined self.charge(costs) — dispatch runs per message.
            yield costs

        endpoint_id = message.endpoint_id
        if message.dst_context == -1:
            endpoints = _t.cast(dict, message.headers.get("endpoints", {}))
            endpoint_id = endpoints.get(self.id, endpoint_id)
        try:
            endpoint = self.endpoints[endpoint_id]
        except KeyError:
            raise HandlerError(
                f"RSR {message.handler!r} addressed unknown endpoint "
                f"{endpoint_id} in context {self.id}"
            ) from None
        try:
            handler = self.handlers[message.handler]
        except KeyError:
            raise HandlerError(
                f"context {self.id} has no handler {message.handler!r}"
            ) from None

        payload = message.payload
        if payload.__class__ is Buffer or isinstance(payload, Buffer):
            payload = payload.reader_copy()
        endpoint.rsrs_received += 1
        endpoint.bytes_received += message.nbytes
        endpoint.last_rsr_at = nexus.sim._now
        self.rsrs_dispatched += 1

        if trace is not None:
            trace.transition("handler", ctx=self.id)
        result = handler(self, endpoint, payload)  # type: ignore[arg-type]
        threaded = result is not None and hasattr(result, "send")
        if trace is not None:
            trace.finish(nexus.sim.now, threaded=threaded)
        if threaded:
            # Threaded handler: runs concurrently, may block.
            nexus.sim.spawn(_t.cast(_t.Generator, result),
                            name=f"handler:{message.handler}@ctx{self.id}")
        # A completed dispatch may have satisfied a condition another
        # process in this context is waiting on (e.g. an MPI match made by
        # a forwarder service loop or blocking watcher while the
        # application idles); wake idle waiters so they re-check.
        if self._arrival_waiters:
            self.note_arrival()

    def _conversion_cost(self, message: WireMessage) -> float:
        """Data-representation (XDR) conversion cost for heterogeneous
        traffic: charged when sender and receiver architectures differ."""
        my_arch = self.host.attributes.get("arch")
        if my_arch is None:
            return 0.0
        try:
            sender = self.nexus._resolve_context(message.src_context)
        except NexusError:
            return 0.0
        their_arch = sender.host.attributes.get("arch")
        if their_arch is None or their_arch == my_arch:
            return 0.0
        self.nexus.xdr_conversions.value += 1
        return self.nexus.runtime_costs.xdr_per_byte * message.nbytes

    # -- convenience -----------------------------------------------------------

    # Both hand back the poll manager's own generator rather than wrap
    # it: a blocking operation costs one frame below its caller.

    def poll(self):
        """Generator: one explicit run of the polling function."""
        return self.poll_manager.poll()

    def wait(self, condition: _t.Callable[[], bool] | Event):
        """Generator: poll until ``condition`` holds (see PollManager.wait)."""
        return self.poll_manager.wait(condition)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Context {self.name!r} id={self.id} host={self.host.name!r} "
                f"methods={self._export_table.methods}>")
