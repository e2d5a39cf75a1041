"""PVM-style messaging: fast method inside a partition, forwarding
daemons (pvmd) for everything external.

As the paper characterises PVM on the Paragon: internal traffic uses the
native library; external traffic is relayed through daemons — and this
routing is hard-coded.  We model the real PVM route faithfully:

    task --fast--> local pvmd --tcp--> remote pvmd --fast--> task

Each partition runs one pvmd: an extra context with (a) a poller process
that runs the unified poll function continuously (a daemon burning its
CPU in select, as pvmd did) and (b) a relay loop that unwraps queued
messages and sends them down the next hop.  Every relayed message is
wrapped in a ``__pvmd_relay__`` envelope addressed to the daemon itself,
so ordinary Nexus dispatch delivers it to the relay queue.
"""

from __future__ import annotations

import typing as _t

from ..core.context import Context
from ..core.runtime import Nexus
from ..simnet.resources import Store
from ..transports.base import WireMessage
from .p4 import P4_HEADER_BYTES, P4Process, P4System

#: Extra wire bytes for the relay envelope.
RELAY_HEADER_BYTES = 12

PVMD_HANDLER = "__pvmd_relay__"


class Pvmd:
    """A per-partition PVM daemon: poller + relay loop."""

    def __init__(self, system: "PvmSystem", context: Context):
        self.system = system
        self.context = context
        self.work: Store = Store(context.nexus.sim,
                                 name=f"pvmd-work@ctx{context.id}")
        self.endpoint = context.new_endpoint(bound_object=self)
        context.register_handler(PVMD_HANDLER, _pvmd_handler)
        context.nexus.sim.spawn(self._poller(), name=f"pvmd-poll@{context.id}")
        context.nexus.sim.spawn(self._relay_loop(),
                                name=f"pvmd-relay@{context.id}")

    def _poller(self):
        """pvmd's main loop: select over its sockets forever."""
        yield from self.context.wait(lambda: False)

    def _relay_loop(self):
        nexus = self.context.nexus
        overhead = nexus.runtime_costs.pvmd_overhead
        while True:
            raw = yield self.work.get()
            inner = _t.cast(WireMessage, raw)
            yield from self.context.charge(overhead)
            self.system.messages_relayed += 1
            destination = nexus._resolve_context(inner.dst_context)
            if self.context.host.same_partition(destination.host):
                # Final hop: deliver over the fast method, unwrapped.
                yield from self.system.transport_send(
                    self.context, self.system.FAST_METHOD, destination,
                    inner)
            else:
                # Inter-daemon hop over TCP, re-wrapped.
                peer = self.system.daemon_for(destination)
                yield from self.system.send_wrapped(self.context, peer,
                                                    inner,
                                                    self.system.SLOW_METHOD)


def _pvmd_handler(context: Context, endpoint, payload) -> None:
    daemon = _t.cast(Pvmd, endpoint.bound_object)
    daemon.work.put(_t.cast(WireMessage, payload))


class PvmSystem(P4System):
    """p4-style tasks plus mandatory pvmd relaying for external traffic."""

    def __init__(self, nexus: Nexus, contexts: _t.Sequence[Context],
                 daemon_contexts: _t.Mapping[int, Context]):
        super().__init__(nexus, contexts)
        self.daemons: dict[int, Pvmd] = {
            session: Pvmd(self, ctx)
            for session, ctx in daemon_contexts.items()
        }
        self.messages_relayed = 0

    @classmethod
    def build(cls, nexus: Nexus, contexts: _t.Sequence[Context]
              ) -> "PvmSystem":
        """Create one daemon per partition, on its first host."""
        daemon_contexts: dict[int, Context] = {}
        for ctx in contexts:
            partition = ctx.host.partition
            if partition is not None and partition.session not in daemon_contexts:
                daemon_contexts[partition.session] = nexus.context(
                    partition.hosts[0], f"pvmd-{partition.name}",
                    methods=("local", "mpl", "tcp"))
        return cls(nexus, contexts, daemon_contexts)

    # -- plumbing shared with the daemons -----------------------------------

    def daemon_for(self, context: Context) -> Pvmd:
        partition = context.host.partition
        assert partition is not None
        return self.daemons[partition.session]

    def transport_send(self, src: Context, method: str, dst: Context,
                       message: WireMessage):
        """Generator: raw single-hop send of ``message`` to ``dst``."""
        transport = self.nexus.transports.get(method)
        descriptor = transport.export_descriptor(dst)
        assert descriptor is not None
        key = (src.id, dst.id, method)
        state = self._comm_state.get(key)
        if state is None:
            state = transport.open(src, descriptor)
            self._comm_state[key] = state
        yield from transport.send(src, state, descriptor, message)

    def send_wrapped(self, src: Context, daemon: Pvmd,
                     inner: WireMessage, method: str):
        """Generator: wrap ``inner`` in a relay envelope to ``daemon``."""
        wrapper = WireMessage(
            handler=PVMD_HANDLER,
            endpoint_id=daemon.endpoint.id,
            src_context=src.id,
            dst_context=daemon.context.id,
            payload=inner,
            nbytes=inner.nbytes + RELAY_HEADER_BYTES,
        )
        yield from self.transport_send(src, method, daemon.context, wrapper)

    # -- the hard-coded send path ----------------------------------------------

    def _send(self, proc: P4Process, dest: int, tag: int, nbytes: int):
        from ..core.buffers import Buffer

        dst_proc = self.processes[dest]
        src_ctx, dst_ctx = proc.context, dst_proc.context
        payload = (Buffer().put_int(proc.pid).put_int(tag)
                   .put_int(nbytes).put_float(self.nexus.sim.now)
                   .put_padding(nbytes))
        message = WireMessage(
            handler="__p4__",
            endpoint_id=dst_proc._endpoint.id,
            src_context=src_ctx.id,
            dst_context=dst_ctx.id,
            payload=payload,
            nbytes=payload.nbytes + P4_HEADER_BYTES,
        )
        yield from proc.context.poll_manager.poll()

        if src_ctx.host.same_partition(dst_ctx.host):
            yield from self.transport_send(src_ctx, self.FAST_METHOD,
                                           dst_ctx, message)
        else:
            # Hard-coded: out through MY daemon, never directly.
            yield from self.send_wrapped(src_ctx, self.daemon_for(src_ctx),
                                         message, self.FAST_METHOD)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<PvmSystem processes={len(self.processes)} "
                f"daemons={len(self.daemons)} relayed={self.messages_relayed}>")
