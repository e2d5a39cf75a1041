"""Typed channels: inports, outports, merging, port mobility."""

from __future__ import annotations

import collections
import typing as _t

from ..core.buffers import Buffer
from ..core.context import Context
from ..core.endpoint import Endpoint
from ..core.startpoint import Startpoint, WireStartpoint
from ..mpi.datatypes import Payload, pack_payload, unpack_payload

CHANNEL_HANDLER = "__fm_channel__"

#: control opcodes
_OP_DATA = 0
_OP_OPEN = 1
_OP_CLOSE = 2
_OP_PORT = 3


class FmError(Exception):
    """Illegal channel operation."""


class ChannelClosed(FmError):
    """Every writer has closed and the channel is drained (end of
    channel, FM's ``EOC``)."""


class InPort:
    """The single receiving end of a channel.

    Owned by the context that created the channel; cannot move (it wraps
    an endpoint, and endpoints do not travel).
    """

    def __init__(self, context: Context):
        self.context = context
        self.endpoint: Endpoint = context.new_endpoint(bound_object=self)
        context.register_handler(CHANNEL_HANDLER, _channel_handler)
        self.queue: collections.deque = collections.deque()
        self.writers_opened = 1   # the channel's original outport
        self.writers_closed = 0
        self.received = 0

    # -- state -------------------------------------------------------------

    @property
    def open_writers(self) -> int:
        return self.writers_opened - self.writers_closed

    def __len__(self) -> int:
        return len(self.queue)

    # -- receiving ------------------------------------------------------------

    def receive(self):
        """Generator: the next value in merge order (blocks via the poll
        loop); raises :class:`ChannelClosed` at end of channel."""
        while True:
            if self.queue:
                self.received += 1
                return self.queue.popleft()
            if self.open_writers <= 0:
                raise ChannelClosed("end of channel")
            yield from self.context.wait(
                lambda: bool(self.queue) or self.open_writers <= 0)

    def receive_all(self):
        """Generator: drain the channel to end-of-channel; returns a list."""
        values = []
        while True:
            try:
                value = yield from self.receive()
            except ChannelClosed:
                return values
            values.append(value)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<InPort ctx={self.context.id} queued={len(self.queue)} "
                f"writers={self.open_writers}>")


class OutPort:
    """A sending end of a channel (a mobile value).

    ``to_wire()``/``from_wire()`` move a port between contexts — or pack
    it into any channel message with :meth:`send`, which announces it
    to its reader as another writer.
    """

    def __init__(self, startpoint: Startpoint, *, _announced: bool = True):
        self.startpoint = startpoint
        self.closed = False
        self.sent = 0

    @property
    def context(self) -> Context:
        return self.startpoint.context

    @property
    def method(self) -> str | None:
        return self.startpoint.current_methods()[0]

    def _require_open(self) -> None:
        if self.closed:
            raise FmError("operation on a closed outport")

    # -- sending ---------------------------------------------------------------

    def send(self, value: "Payload | OutPort"):
        """Generator: append one value to the channel.

        An :class:`OutPort` value travels as a live port (FM port
        mobility); everything else uses the typed payload encoding.
        """
        self._require_open()
        buffer = Buffer()
        if isinstance(value, OutPort):
            # The transferred port keeps writing rights: announce a
            # writer on ITS channel so the recipient may use it.
            buffer.put_int(_OP_PORT)
            buffer.put_startpoint(value.startpoint)
            yield from _send_control(value, _OP_OPEN)
        else:
            buffer.put_int(_OP_DATA)
            pack_payload(buffer, value)
        self.sent += 1
        yield from self.startpoint.rsr(CHANNEL_HANDLER, buffer)

    def close(self):
        """Generator: retire this writer (end-of-channel once all have)."""
        if self.closed:
            return
        self.closed = True
        yield from _send_control(self, _OP_CLOSE)

    # -- mobility ---------------------------------------------------------------

    def to_wire(self) -> WireStartpoint:
        self._require_open()
        return self.startpoint.to_wire()

    @classmethod
    def from_wire(cls, wire: WireStartpoint, context: Context,
                  *, announce: bool = True):
        """Generator: import a port into ``context`` (announcing the new
        writer to the channel's reader unless it replaces the original)."""
        port = cls(context.import_startpoint(wire))
        if announce:
            yield from _send_control(port, _OP_OPEN)
        return port

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self.closed else "open"
        return f"<OutPort ctx={self.context.id} {state} sent={self.sent}>"


def _send_control(port: OutPort, opcode: int):
    buffer = Buffer()
    buffer.put_int(opcode)
    yield from port.startpoint.rsr(CHANNEL_HANDLER, buffer)


def _channel_handler(context: Context, endpoint: Endpoint | None,
                     buffer: Buffer) -> None:
    assert endpoint is not None
    inport = _t.cast(InPort, endpoint.bound_object)
    opcode = buffer.get_int()
    if opcode == _OP_DATA:
        inport.queue.append(unpack_payload(buffer))
    elif opcode == _OP_PORT:
        wire = buffer.get_startpoint(context)
        # Arrives pre-announced (the sender issued the OPEN); wrap without
        # announcing again.
        inport.queue.append(OutPort(wire))
    elif opcode == _OP_OPEN:
        inport.writers_opened += 1
    elif opcode == _OP_CLOSE:
        inport.writers_closed += 1
    else:  # pragma: no cover - wire corruption guard
        raise FmError(f"bad channel opcode {opcode}")


def channel(context: Context) -> tuple[OutPort, InPort]:
    """Create a channel in ``context``; returns ``(outport, inport)``.

    The outport usually travels elsewhere (pack it into another
    channel's message, or ``to_wire``/``from_wire`` it); the inport
    stays.
    """
    inport = InPort(context)
    outport = OutPort(context.startpoint_to(inport.endpoint))
    return outport, inport
