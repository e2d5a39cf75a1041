"""Startpoints and communication links: the paper's core abstraction.

A *communication link* connects a startpoint to an endpoint.  Startpoints:

* must be bound to an endpoint before use (:meth:`Startpoint.bind`);
* may be bound to **several** endpoints — an RSR then multicasts;
* may be **copied between contexts** (``to_wire`` / ``import_startpoint``),
  carrying the destination's communication descriptor table with them so
  the receiving context knows every way to reach the endpoint (a value,
  shared rather than copied);
* carry the *communication method* for the link: selected automatically
  (first-applicable over the table) or manually, and changeable at any
  time with :meth:`set_method` — "the communication method associated
  with any startpoint can be altered, so a process receiving a startpoint
  can change the communication method to be used".

The single operation on a startpoint is the asynchronous *remote service
request* (:meth:`rsr`): transfer a buffer to each linked endpoint's
context and invoke a named handler there with the endpoint and buffer.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..obs.spans import PHASE_FAILOVER, PHASE_PROBE, PHASE_RETRY
from ..transports.base import WireMessage
from ..transports.errors import DeliveryError
from ..transports.multicast import MulticastTransport
from .buffers import Buffer
from .commobject import CommObject
from .descriptor_table import CommDescriptorTable
from .errors import BindError, SelectionError
from .selection import FirstApplicable, SelectionPolicy

if _t.TYPE_CHECKING:  # pragma: no cover
    from .context import Context
    from .endpoint import Endpoint


@dataclasses.dataclass(frozen=True)
class WireLink:
    """Serialised form of one communication link."""

    context_id: int
    endpoint_id: int
    table_wire: tuple | None  # None for lightweight startpoints
    #: Methods the sender currently considers down towards the linked
    #: context — mobile startpoints carry health state between address
    #: spaces so the importer skips known-bad methods immediately.
    down_methods: tuple[str, ...] = ()

    @property
    def wire_size(self) -> int:
        size = 12  # context id + endpoint id + flags
        if self.table_wire is not None:
            size += CommDescriptorTable.from_wire(self.table_wire).wire_size
        size += sum(1 + len(method) for method in self.down_methods)
        return size


@dataclasses.dataclass(frozen=True)
class WireStartpoint:
    """Serialised form of a startpoint (what actually travels)."""

    links: tuple[WireLink, ...]

    @property
    def wire_size(self) -> int:
        return 4 + sum(link.wire_size for link in self.links)


class Link:
    """One live startpoint→endpoint connection with its chosen method."""

    __slots__ = ("context_id", "endpoint_id", "table", "comm",
                 "health_epoch", "selected_table")

    def __init__(self, context_id: int, endpoint_id: int,
                 table: CommDescriptorTable):
        self.context_id = context_id
        self.endpoint_id = endpoint_id
        #: The remote context's descriptor table, a value: the owner
        #: steers selection by rebinding ``link.table.promote(m)`` etc.
        self.table = table
        self.comm: CommObject | None = None
        #: Health-tracker epoch the current method was selected under;
        #: a mismatch forces re-selection (methods went down or came up).
        self.health_epoch = -1
        #: The table the current method was selected from; once
        #: ``table`` is rebound to another, first-applicable re-runs.
        self.selected_table: CommDescriptorTable | None = None

    @property
    def method(self) -> str | None:
        """Currently selected method, or None before first use."""
        return self.comm.method if self.comm is not None else None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Link ->ctx{self.context_id}/ep{self.endpoint_id} "
                f"method={self.method!r}>")


#: The selection policy of every startpoint that names none.
_AUTOMATIC = FirstApplicable()


class Startpoint:
    """The sending half of one or more communication links."""

    def __init__(self, context: "Context",
                 policy: SelectionPolicy | None = None):
        self.context = context
        self.links: list[Link] = []
        #: This startpoint's selection policy (default: the paper's
        #: automatic first-applicable rule).
        self.policy: SelectionPolicy = policy or _AUTOMATIC
        self.rsrs_sent = 0
        self.bytes_sent = 0

    # -- binding -----------------------------------------------------------

    def bind(self, endpoint: "Endpoint") -> "Startpoint":
        """Create a communication link to a (local) endpoint object.

        Binding carries the endpoint context's descriptor table onto the
        link, which is how the table later travels with the startpoint.
        Returns ``self`` for chaining.
        """
        self.links.append(Link(endpoint.context.id, endpoint.id,
                               endpoint.context.export_table()))
        return self

    def bind_address(self, context_id: int, endpoint_id: int,
                     table: CommDescriptorTable) -> "Startpoint":
        """Bind to a remote endpoint by address + (shared) table."""
        self.links.append(Link(context_id, endpoint_id, table))
        return self

    @property
    def is_multicast(self) -> bool:
        return len(self.links) > 1

    # -- method control ------------------------------------------------------

    def ensure_connected(self, link: Link,
                         excluded: _t.Collection[str] = ()) -> CommObject:
        """Select a healthy method for ``link`` and return its comm object.

        The happy path is a handful of comparisons: with a selected
        method, the table it was selected from still bound, an unchanged
        health epoch, and no cool-off expiry pending, the cached comm
        object is returned untouched.  Otherwise the link's descriptor
        table is rescanned *minus* down/``excluded`` methods — the
        paper's first-applicable rule reused as a degradation ladder.
        Raises :class:`SelectionError` when no healthy, applicable
        method remains.
        """
        context = self.context
        health = context.health
        if (link.comm is not None and not excluded
                and link.selected_table is link.table
                and link.health_epoch == health.epoch
                and context.nexus.sim._now < health.next_probe_at):
            return link.comm
        down = health.down_methods(link.context_id)
        unavailable = set(down) | set(excluded)
        table = link.table.without(unavailable)
        if len(table) == 0:
            raise SelectionError(
                f"link to context {link.context_id}: no healthy "
                f"communication methods left (all of "
                f"{link.table.methods} are down or failed)"
            )
        remote_host = context.nexus.context_host(link.context_id)
        try:
            descriptor = self.policy.select(context, table, remote_host)
        except SelectionError:
            if unavailable:
                raise SelectionError(
                    f"link to context {link.context_id}: no healthy "
                    f"communication methods left ({sorted(unavailable)} "
                    f"down or failed, remainder not applicable)"
                ) from None
            raise
        link.comm = context.comm_object_for(descriptor)
        link.health_epoch = health.epoch
        link.selected_table = link.table
        return link.comm

    def set_method(self, method: str) -> None:
        """Dynamically switch every link to ``method``.

        Implements the paper's dynamic method change: "constructing a new
        communication object and storing a reference to that object in the
        startpoint".  Raises :class:`SelectionError` if any link's table
        lacks an applicable entry for ``method``.  The manual choice is
        stamped into the link's selection cache, so it sticks until the
        health tracker's epoch moves or the link's table is rebound — the
        same invalidation rules as an automatic selection.
        """
        registry = self.context.nexus.transports
        health = self.context.health
        for link in self.links:
            descriptor = link.table.entry(method)
            remote_host = self.context.nexus.context_host(link.context_id)
            transport = registry.get(method)
            if not transport.applicable(self.context, descriptor, remote_host):
                raise SelectionError(
                    f"method {method!r} not applicable on link to "
                    f"context {link.context_id}"
                )
            link.comm = self.context.comm_object_for(descriptor)
            link.health_epoch = health.epoch
            link.selected_table = link.table

    def current_methods(self) -> list[str | None]:
        """Selected method per link (None where not yet selected)."""
        return [link.method for link in self.links]

    # -- the one communication operation ------------------------------------

    def rsr(self, handler: str, buffer: Buffer | None = None):
        """Generator: issue an asynchronous remote service request.

        For each linked endpoint, transfers ``buffer`` to the endpoint's
        context and invokes the handler registered there under ``handler``
        with the endpoint and the buffer.  Resumes the caller once the
        request has been handed to the transport(s) — *not* when the
        remote handler runs (one-sided, asynchronous semantics).
        """
        if not self.links:
            raise BindError("rsr() on an unbound startpoint")
        context = self.context
        nexus = context.nexus
        if buffer is None:
            buffer = Buffer()

        # Every Nexus operation gives the poll function a chance to run.
        yield from context.poll_manager.poll()

        obs = nexus.obs
        issue = (obs.rsr_begin(context.id, handler, len(self.links))
                 if obs.enabled else None)
        marshal = (obs.open_span("marshal", rsr=issue.rsr, ctx=context.id,
                                 parent=issue.id)
                   if issue is not None else None)
        overhead = nexus.runtime_costs.rsr_send_overhead
        if overhead > 0:
            # Inlined context.charge(overhead) — one generator fewer per RSR.
            yield overhead
        if marshal is not None:
            obs.close_span(marshal)

        nbytes = (buffer.nbytes + nexus.runtime_costs.header_bytes
                  + len(handler))
        self.rsrs_sent += 1
        self.bytes_sent += nbytes
        nexus.rsrs_sent.value += 1

        group = self._common_multicast_group()
        if group is not None:
            yield from self._rsr_multicast(handler, buffer, nbytes, group,
                                           issue)
            if issue is not None:
                obs.close_span(issue)
            return

        for link in self.links:
            yield from self._send_link(link, handler, buffer, nbytes, issue)
        if issue is not None:
            obs.close_span(issue)

    # -- failure recovery --------------------------------------------------

    def _send_link(self, link: Link, handler: str, buffer: Buffer,
                   nbytes: int, issue):
        """Generator: deliver one link's message with retry + failover.

        Attempts the selected method up to ``RetryPolicy.max_attempts``
        times (exponential backoff, seeded jitter); when a method
        exhausts its attempts — or a cool-off probe fails — it is
        excluded and the descriptor table rescanned for the next
        applicable healthy method.  Every failure feeds the
        context's health tracker; success clears it.

        With no installed faults this reduces to exactly one
        ``comm.send`` per link.
        """
        context = self.context
        nexus = context.nexus
        obs = nexus.obs
        health = context.health
        policy = nexus.retry_policy
        excluded: set[str] = set()

        while True:
            comm = self.ensure_connected(link, excluded=excluded)
            method = comm.method
            probing = health.in_probe(link.context_id, method)
            if probing:
                nexus.obs.metrics.counter("nexus.health_probes").inc()
            failed_method = False
            for attempt in range(policy.max_attempts):
                span = None
                if issue is not None:
                    if probing:
                        span = obs.open_span(
                            PHASE_PROBE, rsr=issue.rsr, ctx=context.id,
                            lane=method, parent=issue.id)
                    elif attempt > 0:
                        span = obs.open_span(
                            PHASE_RETRY, rsr=issue.rsr, ctx=context.id,
                            lane=method, parent=issue.id, attempt=attempt)
                if attempt > 0:
                    nexus.obs.metrics.counter("nexus.rsr_retries").inc()
                    # The stream is fetched lazily: the no-fault fast path
                    # never backs off, so it never pays for the lookup.
                    delay = policy.delay(attempt - 1,
                                         nexus.streams.stream("retry"))
                    if delay > 0:
                        yield delay
                    if health.is_down(link.context_id, method):
                        # Someone else's failures downed the method while
                        # we backed off; stop beating on it.
                        if span is not None:
                            obs.close_span(span)
                        failed_method = True
                        break
                message = WireMessage(
                    handler=handler,
                    endpoint_id=link.endpoint_id,
                    src_context=context.id,
                    dst_context=link.context_id,
                    payload=(buffer.reader_copy() if self.is_multicast
                             else buffer),
                    nbytes=nbytes,
                )
                if issue is not None:
                    obs.attach(message, issue)
                failure = None
                try:
                    yield from comm.send(message)
                except DeliveryError as exc:
                    failure = exc
                if failure is None:
                    health.record_success(link.context_id, method)
                    if span is not None:
                        obs.close_span(span)
                    return
                if message.trace is not None:
                    # Unlike a genuine drop, a failed attempt must not
                    # close the issue span or count rsr_dropped — the
                    # RSR lives on via retry or failover.
                    message.trace.abandon(str(failure))
                if span is not None:
                    if span.attrs is None:
                        span.attrs = {}
                    span.attrs["failed"] = True
                    obs.close_span(span)
                health.record_failure(link.context_id, method)
                if probing or health.is_down(link.context_id, method):
                    # A failed probe (or a mid-retry down transition)
                    # skips straight to failover.
                    failed_method = True
                    break
            else:
                failed_method = True
            if failed_method:
                excluded.add(method)
                link.comm = None
                nexus.obs.metrics.counter("nexus.rsr_failovers").inc()
                if issue is not None:
                    failover = obs.open_span(
                        PHASE_FAILOVER, rsr=issue.rsr, ctx=context.id,
                        lane=method, parent=issue.id, from_method=method)
                    obs.close_span(failover)

    def _common_multicast_group(self) -> str | None:
        """If every link has selected the mcast method with one shared
        group, return that group so the sends collapse into one."""
        if len(self.links) < 2:
            return None
        group: str | None = None
        for link in self.links:
            if link.comm is None or link.comm.method != "mcast":
                return None
            link_group = _t.cast(str | None,
                                 link.comm.descriptor.param("group"))
            if link_group is None:
                return None
            if group is None:
                group = link_group
            elif group != link_group:
                return None
        return group

    def _rsr_multicast(self, handler: str, buffer: Buffer, nbytes: int,
                       group: str, issue=None):
        context = self.context
        transport = context.nexus.transports.get("mcast")
        assert isinstance(transport, MulticastTransport)
        first = self.links[0]
        assert first.comm is not None
        message = WireMessage(
            handler=handler,
            endpoint_id=first.endpoint_id,
            src_context=context.id,
            dst_context=-1,  # group-addressed
            payload=buffer,
            nbytes=nbytes,
            headers={"group": group,
                     "endpoints": {l.context_id: l.endpoint_id
                                   for l in self.links}},
        )
        if issue is not None:
            context.nexus.obs.attach(message, issue)
            message.trace.transition("enqueue", ctx=context.id,
                                     lane=transport.name, group=group)
        yield from transport.send_group(context, first.comm.state, group,
                                        message)

    # -- mobility ---------------------------------------------------------------

    def to_wire(self, *, lightweight: bool = False) -> WireStartpoint:
        """Serialise for transfer to another context.

        "When a startpoint is copied, new communication links are created,
        mirroring the links associated with the original startpoint."  The
        wire form carries each link's endpoint address and (unless
        ``lightweight``) its descriptor table.
        """
        if not self.links:
            raise BindError("cannot serialise an unbound startpoint")
        health = self.context.health
        return WireStartpoint(links=tuple(
            WireLink(
                context_id=link.context_id,
                endpoint_id=link.endpoint_id,
                table_wire=None if lightweight else link.table.to_wire(),
                down_methods=health.down_methods(link.context_id),
            )
            for link in self.links
        ))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Startpoint ctx={self.context.id} links={len(self.links)} "
                f"methods={self.current_methods()}>")
