"""Global pointers: mobile references to remote objects."""

from __future__ import annotations

import typing as _t

from ..core.buffers import Buffer
from ..core.startpoint import Startpoint, WireStartpoint
from .futures import RpcFuture
from .marshal import pack_value, pack_values

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..core.context import Context


class GlobalPointer:
    """A reference to an object exposed in some context, usable anywhere.

    Wraps the startpoint whose endpoint is bound to the object; all of
    the multimethod machinery (automatic selection, manual `set_method`,
    table editing) is available through :attr:`startpoint`.
    """

    def __init__(self, startpoint: Startpoint):
        self.startpoint = startpoint

    @property
    def context(self) -> "Context":
        """The context this pointer is currently held in."""
        return self.startpoint.context

    @property
    def target_context_id(self) -> int:
        return self.startpoint.links[0].context_id

    @property
    def method(self) -> str | None:
        """The communication method currently selected for calls."""
        return self.startpoint.current_methods()[0]

    # -- invocation ----------------------------------------------------------

    def acall(self, method: str, *args: object) -> RpcFuture:
        """Start an asynchronous remote method invocation."""
        from .service import CALL_HANDLER, RpcRuntime

        runtime = RpcRuntime.of(self.context)
        seq = runtime.next_seq()
        future = RpcFuture(runtime, seq, method)
        runtime.pending[seq] = future

        request = Buffer()
        request.put_int(seq)
        request.put_str(method)
        pack_value(request, runtime.reply_pointer())
        pack_values(request, args)

        def send():
            yield from self.startpoint.rsr(CALL_HANDLER, request)

        self.context.nexus.spawn(
            send(), name=f"rpc:{method}@ctx{self.context.id}")
        return future

    def call(self, method: str, *args: object):
        """Generator: synchronous remote method invocation."""
        future = self.acall(method, *args)
        result = yield from future.wait()
        return result

    # -- mobility -------------------------------------------------------------

    def to_wire(self) -> WireStartpoint:
        """Serialise for transfer (see also passing pointers as RPC
        arguments, which does this automatically)."""
        return self.startpoint.to_wire()

    @classmethod
    def from_wire(cls, wire: WireStartpoint,
                  context: "Context") -> "GlobalPointer":
        return cls(context.import_startpoint(wire))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<GlobalPointer ->ctx{self.target_context_id} "
                f"method={self.method!r}>")
