"""Dedicated forwarding processor (Section 3.3, Table 1 row 2).

"Another approach ... is to define a dedicated *forwarding* processor.
This processor receives all incoming communication associated with a
specific communication method and forwards these communications to their
intended destination by using an alternative method.  For example, in an
SP2 environment, all TCP communications from external sources would be
routed to a single SP node, which in turn would forward these
communications to other nodes by using MPL.  The use of a forwarding node
means that other nodes need not check for communications with the
forwarded communication method."

Installation rewrites each member context's exported descriptor: its
``tcp`` entry gains a ``via = <forwarder context id>`` parameter, so any
startpoint bound afterwards routes external TCP traffic through the
forwarder; the member then stops polling TCP entirely.  The forwarder
re-issues arriving messages over the fast intra-partition method, paying
a per-message forwarding overhead — which is why, as the paper observes,
well-tuned polling can beat forwarding when every node has good TCP
connectivity.
"""

from __future__ import annotations

import typing as _t

from ..transports.base import WireMessage
from ..util.units import microseconds
from .errors import NexusError

if _t.TYPE_CHECKING:  # pragma: no cover
    from .context import Context
    from .runtime import Nexus


class ForwardingService:
    """Routes one method's traffic for a set of contexts via a forwarder."""

    def __init__(self, nexus: "Nexus", *, method: str = "tcp",
                 fast_method: str = "mpl",
                 forward_overhead: float = microseconds(50.0)):
        self.nexus = nexus
        self.method = method
        self.fast_method = fast_method
        self.forward_overhead = forward_overhead
        self.forwarder: "Context | None" = None
        self.members: list["Context"] = []
        self.messages_forwarded = 0
        self.bytes_forwarded = 0
        #: Runtime-wide count over every service, bumped per forward.
        self._forwarded = nexus.obs.metrics.counter("forwarding.messages")

    def install(self, forwarder: "Context",
                members: _t.Iterable["Context"]) -> None:
        """Designate ``forwarder`` and reroute every member's descriptors.

        Must be called before startpoints to the members are created:
        descriptor tables already copied onto existing links are not
        rewritten (matching the paper, where tables travel by value).
        """
        if self.forwarder is not None:
            raise NexusError("forwarding service is already installed")
        self.forwarder = forwarder
        forwarder.forwarder = self
        # A persistent service loop guarantees liveness: traffic landing at
        # the forwarder is dispatched (and re-sent) even while the
        # forwarder's own application code computes or after it finishes.
        # The forwarder context still polls the forwarded method itself, so
        # an application rank doubling as forwarder keeps paying the poll
        # tax — which is why the paper measures forwarding ~= skip_poll 1.
        self.nexus.sim.spawn(self._service_loop(forwarder),
                             name=f"forwarder:{self.method}@ctx{forwarder.id}")

        for member in members:
            if member is forwarder:
                continue
            table = member.export_table()
            if self.method not in table:
                raise NexusError(
                    f"context {member.id} has no {self.method!r} descriptor "
                    "to reroute"
                )
            original = table.entry(self.method)
            table.replace(self.method,
                          original.with_param("via", forwarder.id))
            # The member no longer needs to check for this method at all.
            member.poll_manager.disable(self.method)
            self.members.append(member)
        self.nexus.obs.metrics.counter("forwarding.installs").inc()

    def _service_loop(self, forwarder: "Context"):
        """Drain the forwarder's inbox for the forwarded method, forever.

        Runs concurrently with the forwarder's own application process;
        the Store hands each arriving message to exactly one consumer, so
        there is no double delivery when the application's own polls race
        this loop.
        """
        inbox = forwarder.inbox(self.method)
        dispatch_cost = self.nexus.runtime_costs.dispatch_cost
        while True:
            message = yield inbox.get()
            yield from forwarder.charge(dispatch_cost)
            yield from forwarder.dispatch(_t.cast(WireMessage, message))

    def forward(self, forwarder_context: "Context", message: WireMessage):
        """Generator: re-send an externally received message to its real
        destination over the fast intra-partition method."""
        if forwarder_context is not self.forwarder:
            raise NexusError("forward() called on a non-forwarder context")
        if message.trace is not None:
            message.trace.hops += 1
            message.trace.transition("forward", ctx=forwarder_context.id,
                                     hop=message.trace.hops,
                                     fast_method=self.fast_method)
        yield from forwarder_context.charge(self.forward_overhead)

        registry = self.nexus.transports
        fast = registry.get(self.fast_method)
        destination = self.nexus._resolve_context(message.dst_context)
        descriptor = fast.export_descriptor(destination)
        if descriptor is None:
            raise NexusError(
                f"forwarder cannot reach context {message.dst_context} "
                f"via {self.fast_method!r}"
            )
        comm = forwarder_context.comm_object_for(descriptor)
        self.messages_forwarded += 1
        self.bytes_forwarded += message.nbytes
        self._forwarded.value += 1
        yield from comm.send(message)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        fid = self.forwarder.id if self.forwarder else None
        return (f"<ForwardingService {self.method}->{self.fast_method} "
                f"forwarder={fid} forwarded={self.messages_forwarded}>")
