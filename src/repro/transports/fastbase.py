"""Shared machinery for *fast* transports (local, shm, MPL, Myrinet).

Fast transports model the parallel-computer communication devices the
paper contrasts with TCP: cheap probes, high bandwidth, and a
**receiver-drain** delivery model.  A message reaches the destination's
communication *device* after the wire latency, and the device drains it
to user space at device bandwidth — but expensive foreign polls (TCP/UDP
``select``) stall the drain.  This implements the paper's hypothesis for
the Figure 4 large-message degradation:

    "repeated kernel calls due to select slow the transfer of data from
    the SP2 communication device to user space"

Mechanism: every context carries a monotone accumulator
``foreign_poll_total`` of time spent in device-stealing polls (maintained
by the poll manager).  Each in-transit message records the accumulator
value when it starts arriving; at poll time the message is deliverable
once::

    now >= ready_at + (1 - overlap) * (foreign_total_now - foreign_at_arrival)

where ``ready_at`` is the unhindered completion time (arrival start plus
``nbytes / bandwidth``, serialised FIFO at the device) and ``overlap`` is
:attr:`RuntimeCosts.select_drain_overlap`.  With no foreign polls the
penalty is zero and the device runs at full speed.

The send is one frame per message: :meth:`FastTransport.send` resolves
its destination through the services' resolver, counts the send in
line, and the arrival wakes the destination's idle waiters through
``note_arrival`` directly.
"""

from __future__ import annotations

from .base import (
    ContextLike,
    Descriptor,
    InTransitMessage,
    ReceiveLane,
    Transport,
    WireMessage,
)
from .errors import DeliveryError, TransportError

#: Clock slack of the readiness test: a poll at ``now`` delivers a
#: message whose :meth:`FastTransport.deliverable_at` is no later than
#: ``now + _READY_SLACK``.
_READY_SLACK = 1e-15


class FastTransport(Transport):
    """Base class implementing the receiver-drain send/poll protocol."""

    receiver_drain = True

    def send(self, local: ContextLike, state: dict, descriptor: Descriptor,
             message: WireMessage):
        destination = self.services.resolve_context(descriptor.context_id)
        network = self.network
        if network._fault_rules and network.is_faulted(
                local.host, destination.host, self.wire_method):
            raise DeliveryError(
                f"{self.name} between {local.host.name!r} and "
                f"{destination.host.name!r} is down (hard fault)"
            )
        costs = self.costs
        overhead = costs.send_overhead + costs.per_byte_send * message.nbytes
        if overhead > 0:
            yield overhead
        message.method = self.name
        message.sent_at = self.sim._now
        self.messages_sent += 1
        self.bytes_sent += message.nbytes
        if message.trace is not None:
            message.trace.transition("wire", ctx=local.id, lane=self.name,
                                     nbytes=message.nbytes)
        if network._flaky_rules and network.fault_drop(
                local.host, destination.host, self.wire_method):
            # Fast devices are reliable: a flaky loss surfaces as a
            # synchronous device error rather than a silent drop.
            raise DeliveryError(
                f"{self.name} device send {local.host.name!r}->"
                f"{destination.host.name!r} failed on flaky link"
            )
        self.sim.process(
            self._arrive_later(destination, message),
            name=f"{self.name}:arrive:{message.handler}",
        )

    def _arrive_later(self, destination: ContextLike, message: WireMessage):
        yield self.costs.latency
        self._enqueue_at_device(destination, message)

    def _enqueue_at_device(self, destination: ContextLike,
                           message: WireMessage) -> None:
        now = self.sim._now
        queue = destination.device_queue(self.name)
        busy = destination.device_busy.get(self.name, 0.0)
        start = busy if busy > now else now  # max(now, busy), no call
        ready_at = start + message.nbytes / self.costs.bandwidth
        destination.device_busy[self.name] = ready_at
        queue.append(InTransitMessage(
            message=message,
            arrival_start=now,
            ready_at=ready_at,
            foreign_at_arrival=destination.foreign_poll_total,
        ))
        if message.trace is not None:
            # Device drain + detection wait both belong to poll_detect.
            message.trace.transition("poll_detect", ctx=destination.id,
                                     lane=self.name, ready_at=ready_at)
        destination.note_arrival()

    def collect(self, context: ContextLike,
                lane: ReceiveLane | None = None) -> list[WireMessage]:
        """Deliver every drained in-transit message (FIFO, no cost).
        ``lane``, if given, holds this method's device queue at
        ``context``."""
        # Without a lane, reach for the queue dict directly (every core
        # Context has one): unlike ``device_queue()`` that does not
        # materialise a list just to discover there is nothing to drain.
        if lane is not None:
            queue = lane.queue
        else:
            queue = context._device_queues.get(self.name)  # type: ignore[attr-defined]
        if not queue:
            return []
        now = self.sim._now
        foreign_now = context.foreign_poll_total
        ready: list[WireMessage] = []
        while queue:
            transit = queue[0]
            if now + _READY_SLACK < self.deliverable_at(transit, foreign_now):
                break  # device is FIFO: later messages cannot overtake
            queue.pop(0)
            transit.message.arrived_at = now
            ready.append(transit.message)
        return ready

    def deliverable_at(self, transit: InTransitMessage,
                       foreign_now: float) -> float:
        """Clock reading from which a poll delivers ``transit``, given the
        context's ``foreign_poll_total`` at the time of asking (the
        module docstring's formula; it only grows as foreign polls
        accumulate)."""
        overlap = self.services.runtime_costs.select_drain_overlap
        return transit.ready_at + (1.0 - overlap) * (
            foreign_now - transit.foreign_at_arrival)

    def spin_collect(self, context: ContextLike, loop_cost: float):
        """Generator: spin on this method alone until a poll delivers.

        The hand-coded receive loop of a single-method program — charge
        ``loop_cost``, then ``poll_cost``, then :meth:`collect`, repeat
        until a collect returns messages — and it returns those.  The clock
        reading at every delivery is bit for bit the one the loop would
        have reached, but the empty polls are not simulated one event
        pair each: the spin sleeps until a message reaches the device,
        then *walks* the poll grid to the first instant at which
        :meth:`collect` can deliver and sleeps once more, to exactly that
        instant.  The walk repeats the loop's own float additions (``t +
        loop_cost``, then ``+ poll_cost``, per iteration); ``n * cycle``
        would round differently and land beside the grid.

        Exact provided this spin is the only collector of this method's
        queue at ``context``.  Foreign polls by other processes of the
        context are allowed: they only push deliverability later, which
        the :meth:`collect` at the chosen instant discovers, and the walk
        resumes from there.
        """
        poll_cost = self.costs.poll_cost
        if not loop_cost + poll_cost > 0:
            raise TransportError(
                f"{self.name} spin with loop cost {loop_cost!r} and poll "
                f"cost {poll_cost!r} would never advance the clock")
        sim = self.sim
        queues = context._device_queues  # type: ignore[attr-defined]
        t = sim._now  # the grid instant the spin has reached
        while True:
            queue = queues.get(self.name)
            if not queue:
                yield context.arrival_signal()  # type: ignore[attr-defined]
                continue
            deliverable = self.deliverable_at(queue[0],
                                              context.foreign_poll_total)
            while True:
                t = t + loop_cost
                t = t + poll_cost
                if not t + _READY_SLACK < deliverable:
                    break
            # A message that reached the device while the spin slept
            # still has to drain (nbytes / bandwidth, far above the slack
            # for every model in ``costmodels``), so no grid instant up to
            # and including the arrival instant can deliver it.  Were one
            # to, whether the loop saw the message there would hang on
            # same-instant event order, which this spin does not
            # reproduce.
            if t <= sim._now:
                raise TransportError(
                    f"{self.name} spin: poll instant {t!r} delivers no "
                    f"later than the clock ({sim._now!r}): a message "
                    "drained in zero time, or the costs are below the "
                    "clock's resolution")
            yield sim.timeout_at(t)
            messages = self.collect(context)
            if messages:
                return messages
