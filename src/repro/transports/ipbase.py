"""Shared machinery for IP-family transports (TCP, UDP, AAL-5).

These transports differ from the fast family in three ways that matter to
the paper's experiments:

* **Kernel-buffer delivery** — an arriving message lands in the
  destination's kernel buffer (the transport inbox) at wire-arrival time
  regardless of what the application is doing; it is *detected* only when
  the application next polls this method.  The gap between arrival and
  detection is exactly the latency that `skip_poll` trades against poll
  cost (Figures 6, Table 1).
* **Expensive polls** — ``select``-class polls cost ~100 µs and steal
  device time from fast transports (``steals_device_time``).
* **Connections** — TCP-style methods pay a one-time connection cost per
  communication object; per-connection channels serialise outgoing data.

Routing honours a ``"via"`` descriptor parameter: when the forwarding
service (Section 3.3) is installed, a partition member's TCP descriptor
is rewritten to route through the forwarder context, which re-sends over
MPL.
"""

from __future__ import annotations

import typing as _t

from ..simnet.link import LinkProfile
from ..simnet.resources import Resource
from .base import (
    ContextLike,
    Descriptor,
    ReceiveLane,
    Transport,
    WireMessage,
)
from .errors import DeliveryError

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..simnet.node import Host


class IpTransport(Transport):
    """Base class for routed, poll-expensive, kernel-buffered transports."""

    def export_descriptor(self, context: ContextLike) -> Descriptor | None:
        return Descriptor(
            method=self.name,
            context_id=context.id,
            params=(("host", context.host.id),),
        )

    def applicable(self, local: ContextLike, descriptor: Descriptor,
                   remote_host: "Host") -> bool:
        return self.network.ip_connected(local.host, remote_host,
                                         self.wire_method)

    # -- profiles ------------------------------------------------------------

    def profile_between(self, src: "Host", dst: "Host") -> LinkProfile:
        """Effective wire profile between two hosts for this method.

        Same machine → the machine's switch profile for this method if one
        is configured, else this module's default costs; different
        machines → the collapsed WAN path profile.

        Raises :class:`DeliveryError` while a hard fault severs the pair
        (the cached profile is epoch-keyed, so installed/lifted faults
        re-resolve on the next send).
        """
        if self.network._fault_rules and self.network.is_faulted(
                src, dst, self.wire_method):
            raise DeliveryError(
                f"{self.wire_method} between {src.name!r} and "
                f"{dst.name!r} is down (hard fault)"
            )
        if src.machine is dst.machine:
            profile = None
            if src.machine is not None:
                profile = src.machine.switch_profile(self.wire_method)
            if profile is not None:
                return profile
            return LinkProfile(
                name=f"{self.name}-default",
                latency=self.costs.latency,
                bandwidth=self.costs.bandwidth,
            )
        profile = self.network.effective_profile(self.wire_method, src, dst)
        if profile is None:
            raise DeliveryError(
                f"no {self.wire_method} route between {src.name!r} and "
                f"{dst.name!r}"
            )
        return profile

    # -- comm objects ------------------------------------------------------

    def open(self, local: ContextLike, descriptor: Descriptor) -> dict:
        state = super().open(local, descriptor)
        state["channel"] = Resource(
            self.sim,
            name=f"{self.name}:{local.id}->{descriptor.context_id}",
        )
        state["profile"] = None  # resolved lazily on first send
        return state

    # -- send ------------------------------------------------------------------

    def send(self, local: ContextLike, state: dict, descriptor: Descriptor,
             message: WireMessage):
        costs = self.costs
        overhead = costs.send_overhead + costs.per_byte_send * message.nbytes
        if overhead > 0:
            yield overhead
        # ``open()`` put every key read here by subscript in ``state``;
        # ``profile_host`` and ``profile_epoch`` come with the first
        # resolved ``profile``.
        if not state["connected"]:
            connect_cost = state["connect_cost"]
            if connect_cost > 0:
                yield connect_cost
            state["connected"] = True
            self.services.metrics.counter(f"{self.name}.connections").inc()

        via = descriptor.param("via")
        hop_context = self.services.resolve_context(
            descriptor.context_id if via is None
            else via)  # type: ignore[arg-type]
        profile = state["profile"]
        network = self.network
        if (profile is None
                or state["profile_host"] is not hop_context.host
                or state["profile_epoch"] != network.epoch):
            profile = self.profile_between(local.host, hop_context.host)
            state["profile"] = profile
            state["profile_host"] = hop_context.host
            state["profile_epoch"] = network.epoch

        channel: Resource = state["channel"]
        yield channel.request()
        message.method = self.name
        message.sent_at = self.sim._now
        yield profile.serialization_time(message.nbytes)
        channel.release()
        self.messages_sent += 1
        self.bytes_sent += message.nbytes
        if message.trace is not None:
            message.trace.transition("wire", ctx=local.id, lane=self.name,
                                     nbytes=message.nbytes)

        if self.network._flaky_rules and self.network.fault_drop(
                local.host, hop_context.host, self.wire_method):
            if self.costs.reliable:
                # A reliable transport notices the loss (connection
                # reset) and reports it synchronously so the core layer
                # can retry or fail over.
                raise DeliveryError(
                    f"{self.name} connection {local.host.name!r}->"
                    f"{hop_context.host.name!r} reset by flaky link"
                )
            self.record_drop(message)
            return
        if not self.costs.reliable and self._drop():
            self.record_drop(message)
            return

        self.sim.process(
            self._arrive_later(hop_context, message, profile.latency),
            name=f"{self.name}:arrive:{message.handler}",
        )

    def _drop(self) -> bool:
        p = self.costs.drop_probability
        return p > 0.0 and bool(
            self.services.streams.stream("transports").random() < p)

    def _arrive_later(self, destination: ContextLike, message: WireMessage,
                      latency: float):
        yield latency
        message.arrived_at = self.sim._now
        if message.trace is not None:
            # Kernel-buffer arrival; detection waits for the next poll.
            message.trace.transition("poll_detect", ctx=destination.id,
                                     lane=self.name)
        destination.inbox(self.name).put(message)
        destination.note_arrival()

    # -- receive ---------------------------------------------------------------

    def collect(self, context: ContextLike,
                lane: ReceiveLane | None = None) -> list[WireMessage]:
        """Drain every message already in the kernel buffer (no cost).
        ``lane``, if given, holds this method's inbox at ``context``."""
        if lane is not None:
            inbox = lane.inbox
        else:
            # The dict, not ``inbox()``: an absent inbox stays absent.
            inboxes = context._inboxes  # type: ignore[attr-defined]
            inbox = inboxes.get(self.name)
            if inbox is None:
                return []
        ready: list[WireMessage] = []
        # An inbox is unbounded, so nothing ever waits to be put: what
        # ``items`` holds is everything there is to get.
        while inbox.items:
            ready.append(inbox.try_get())  # type: ignore[arg-type]
        return ready
