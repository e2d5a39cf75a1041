"""p4-style messaging: hard-coded two-method communication.

Models the p4 parallel programming system (Butler & Lusk) as the paper
characterises it: the fast native library (NX on the Paragon; MPL in our
SP2 world) for processes in the same partition, TCP for everything else
— both supported *within a single process*, the choice wired into the
send path, and both methods polled on every receive-progress step.
There are no descriptor tables, no selection policies, and no polling
knobs: that absence is the baseline's defining property.
"""

from __future__ import annotations

import collections
import dataclasses
import typing as _t

from ..core.context import Context
from ..core.runtime import Nexus
from ..transports.base import WireMessage

#: Wire overhead of a p4 message header.
P4_HEADER_BYTES = 16

P4_HANDLER = "__p4__"


@dataclasses.dataclass
class P4Message:
    """A received p4 message awaiting a matching p4_recv."""

    source: int
    tag: int
    nbytes: int
    sent_at: float


class P4Process:
    """One p4 process: a context plus a typed receive queue."""

    def __init__(self, system: "P4System", pid: int, context: Context):
        self.system = system
        self.pid = pid
        self.context = context
        self.queue: collections.deque[P4Message] = collections.deque()
        context.register_handler(P4_HANDLER, _p4_handler)
        self._endpoint = context.new_endpoint(bound_object=self)

    # -- the p4 API ---------------------------------------------------------

    def send(self, dest: int, tag: int, nbytes: int):
        """Generator: p4_send — the method choice is hard-coded."""
        yield from self.system._send(self, dest, tag, nbytes)

    def recv(self, tag: int | None = None):
        """Generator: p4_recv — poll both methods until a match arrives."""
        while True:
            message = self._match(tag)
            if message is not None:
                return message
            yield from self.context.poll_manager.wait(
                lambda: self._match_exists(tag))

    def _match(self, tag: int | None) -> P4Message | None:
        for index, message in enumerate(self.queue):
            if tag is None or message.tag == tag:
                del self.queue[index]
                return message
        return None

    def _match_exists(self, tag: int | None) -> bool:
        return any(tag is None or m.tag == tag for m in self.queue)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<P4Process {self.pid} queued={len(self.queue)}>"


def _p4_handler(context: Context, endpoint, buffer) -> None:
    proc = _t.cast(P4Process, endpoint.bound_object)
    proc.queue.append(P4Message(
        source=buffer.get_int(),
        tag=buffer.get_int(),
        nbytes=buffer.get_int(),
        sent_at=buffer.get_float(),
    ))


class P4System:
    """A set of p4 processes over hard-coded MPL/TCP method choice."""

    #: The hard-coded methods (NX/TCP on the Paragon; MPL/TCP here).
    FAST_METHOD = "mpl"
    SLOW_METHOD = "tcp"

    def __init__(self, nexus: Nexus, contexts: _t.Sequence[Context]):
        self.nexus = nexus
        self.processes = [P4Process(self, pid, ctx)
                          for pid, ctx in enumerate(contexts)]
        self._comm_state: dict[tuple[int, int, str], dict] = {}

    def process(self, pid: int) -> P4Process:
        return self.processes[pid]

    def _choose_method(self, src: Context, dst: Context) -> str:
        """The entire 'selection policy' of p4: one if-statement."""
        if src.host.same_partition(dst.host):
            return self.FAST_METHOD
        return self.SLOW_METHOD

    def _send(self, proc: P4Process, dest: int, tag: int, nbytes: int):
        from ..core.buffers import Buffer

        dst_proc = self.processes[dest]
        method = self._choose_method(proc.context, dst_proc.context)
        transport = self.nexus.transports.get(method)
        descriptor = transport.export_descriptor(dst_proc.context)
        assert descriptor is not None
        key = (proc.pid, dest, method)
        state = self._comm_state.get(key)
        if state is None:
            state = transport.open(proc.context, descriptor)
            self._comm_state[key] = state

        payload = (Buffer().put_int(proc.pid).put_int(tag)
                   .put_int(nbytes).put_float(self.nexus.sim.now)
                   .put_padding(nbytes))
        message = WireMessage(
            handler=P4_HANDLER,
            endpoint_id=dst_proc._endpoint.id,
            src_context=proc.context.id,
            dst_context=dst_proc.context.id,
            payload=payload,
            nbytes=payload.nbytes + P4_HEADER_BYTES,
        )
        # p4 also runs its progress engine (both polls) on every send.
        yield from proc.context.poll_manager.poll()
        yield from transport.send(proc.context, state, descriptor, message)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<P4System processes={len(self.processes)}>"
