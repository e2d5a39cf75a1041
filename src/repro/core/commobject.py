"""Communication objects: active connections (Figure 2).

"An active connection is represented by a communication object.  A
communication object contains the information found in a single
communication descriptor, a pointer to the function table corresponding
to that descriptor, and any additional state information needed to
represent the connection."

Here the function-table pointer is the :class:`Transport` reference and
the extra state is the transport's ``open()`` dict (e.g. a TCP
connection's established flag and per-connection channel).  Comm objects
are **shared** among startpoints that reference the same context with the
same method — the owning context keeps the cache.
"""

from __future__ import annotations

import typing as _t

from ..transports.base import Descriptor, Transport, WireMessage

if _t.TYPE_CHECKING:  # pragma: no cover
    from .context import Context


class CommObject:
    """An active connection from one context to another via one method."""

    __slots__ = ("owner", "transport", "descriptor", "state",
                 "messages_sent", "bytes_sent")

    def __init__(self, owner: "Context", transport: Transport,
                 descriptor: Descriptor):
        self.owner = owner
        self.transport = transport
        self.descriptor = descriptor
        self.state: dict[str, object] = transport.open(owner, descriptor)
        self.messages_sent = 0
        self.bytes_sent = 0

    @property
    def method(self) -> str:
        return self.transport.name

    def send(self, message: WireMessage):
        """Transmit ``message`` over this connection: accounts the send
        and hands back the transport's own send generator (no frame of
        this object's between the caller and the transport)."""
        self.messages_sent += 1
        self.bytes_sent += message.nbytes
        if message.trace is not None:
            message.trace.transition("enqueue", ctx=self.owner.id,
                                     lane=self.transport.name)
        return self.transport.send(self.owner, self.state,
                                   self.descriptor, message)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<CommObject {self.method} ctx{self.owner.id}->"
                f"ctx{self.descriptor.context_id} msgs={self.messages_sent}>")


def comm_object_key(descriptor: Descriptor) -> tuple:
    """Sharing key: same destination context + method + parameters."""
    return (descriptor.method, descriptor.context_id, descriptor.params)
