"""Reliable-multicast communication module.

The paper motivates multicast with collaborative environments (shared
virtual spaces broadcasting state updates) and notes that a startpoint
bound to several endpoints performs a multicast.  This module supplies a
*group* transport: members join a named group; one send is serialised
once and delivered to every member.  The Nexus RSR layer detects when all
of a startpoint's links selected the same multicast group and collapses
the per-link sends into a single group send.
"""

from __future__ import annotations

import typing as _t

from .base import ContextLike, Descriptor, WireMessage
from .errors import DeliveryError
from .ipbase import IpTransport

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..simnet.node import Host


class MulticastTransport(IpTransport):
    """IP-multicast-style group delivery with reliable semantics."""

    name = "mcast"
    speed_rank = 12

    def __init__(self, services, costs):
        super().__init__(services, costs)
        #: group name -> ordered list of member context ids.
        self.groups: dict[str, list[int]] = {}
        #: Bumped once per group send, so resolved once here.
        self._group_sends = services.metrics.counter("mcast.group_sends")

    # -- group management -----------------------------------------------------

    def join(self, group: str, context: ContextLike) -> None:
        """Add ``context`` to ``group`` (idempotent)."""
        members = self.groups.setdefault(group, [])
        if context.id not in members:
            members.append(context.id)
            self.services.metrics.counter("mcast.joins").inc()

    # -- descriptors --------------------------------------------------------

    def descriptor_for_group(self, context: ContextLike, group: str) -> Descriptor:
        """The descriptor a group member publishes for multicast delivery."""
        return Descriptor(
            method=self.name,
            context_id=context.id,
            params=(("host", context.host.id), ("group", group)),
        )

    def export_descriptor(self, context: ContextLike) -> Descriptor | None:
        # Multicast descriptors are group-specific; they are added to a
        # context's table explicitly via descriptor_for_group, never by
        # the default export scan.
        return None

    def applicable(self, local: ContextLike, descriptor: Descriptor,
                   remote_host: "Host") -> bool:
        group = descriptor.param("group")
        if group is None:
            return False
        if descriptor.context_id not in self.groups.get(_t.cast(str, group), ()):
            return False
        return self.network.ip_connected(local.host, remote_host)

    # -- group send -------------------------------------------------------------

    def send_group(self, local: ContextLike, state: dict, group: str,
                   message: WireMessage):
        """Generator: one serialisation, delivery to every group member.

        Used by the RSR layer when a multi-endpoint startpoint's links all
        share this group; ``send`` (single member, inherited) remains the
        fallback.
        """
        member_ids = [m for m in self.groups.get(group, ()) if m != local.id]
        if not member_ids:
            raise DeliveryError(f"multicast group {group!r} has no remote members")
        costs = self.costs
        if costs.send_overhead > 0:
            yield costs.send_overhead

        message.method = self.name
        message.sent_at = self.sim.now
        # One serialisation at the sender NIC covers all members.
        serialization = message.nbytes / costs.bandwidth
        yield serialization
        self.messages_sent += 1
        self.bytes_sent += message.nbytes
        self._group_sends.value += 1
        trace = message.trace
        if trace is not None:
            # The shared serialisation is the group's wire span; each
            # member's delivery forks a child chain under it.
            trace.transition("wire", ctx=local.id, lane=self.name,
                             group=group, members=len(member_ids))

        endpoints = _t.cast(dict, message.headers.get("endpoints", {}))
        for member_id in member_ids:
            destination = self.services.resolve_context(member_id)
            if not self.costs.reliable and self._drop():
                self.record_drop(nbytes=message.nbytes)
                continue
            copy = WireMessage(
                handler=message.handler,
                endpoint_id=_t.cast(int, endpoints.get(member_id,
                                                       message.endpoint_id)),
                src_context=message.src_context,
                dst_context=member_id,
                payload=message.payload,
                nbytes=message.nbytes,
                method=self.name,
                sent_at=message.sent_at,
                headers=dict(message.headers),
            )
            if trace is not None:
                copy.trace = trace.fork(ctx=member_id, lane=self.name,
                                        nbytes=copy.nbytes)
            profile = self.profile_between(local.host, destination.host)
            self.sim.process(
                self._arrive_later(destination, copy, profile.latency),
                name=f"mcast:arrive:{message.handler}",
            )
        if trace is not None:
            trace.retire()
