"""The RPC runtime: exposing objects and dispatching calls/replies.

One :class:`RpcRuntime` per participating context owns the wire handlers
(``__rpc_call__`` / ``__rpc_reply__``), the reply endpoint, and the
pending-future table.  Server methods may be plain functions *or*
generators — a generator method runs as a simulated process and may
itself communicate (issue RSRs, make nested RPCs) before its reply is
sent, exactly like a threaded Nexus handler.
"""

from __future__ import annotations

import itertools
import typing as _t

from ..core.buffers import Buffer
from ..core.context import Context
from ..core.endpoint import Endpoint
from .errors import RemoteError, RpcError
from .futures import RpcFuture
from .marshal import pack_value, unpack_value, unpack_values
from .pointer import GlobalPointer

CALL_HANDLER = "__rpc_call__"
REPLY_HANDLER = "__rpc_reply__"

class RpcRuntime:
    """Per-context RPC state (created on first use)."""

    def __init__(self, context: Context):
        self.context = context
        self.pending: dict[int, RpcFuture] = {}
        self._seq = itertools.count(1)
        self.calls_served = 0
        self.reply_endpoint: Endpoint = context.new_endpoint(
            bound_object=self)
        context.register_handler(CALL_HANDLER, _call_handler)
        context.register_handler(REPLY_HANDLER, _reply_handler)

    @classmethod
    def of(cls, context: Context) -> "RpcRuntime":
        runtime = getattr(context, "_rpc_runtime", None)
        if runtime is None:
            runtime = cls(context)
            context._rpc_runtime = runtime  # type: ignore[attr-defined]
        return runtime

    def next_seq(self) -> int:
        return next(self._seq)

    def reply_pointer(self) -> GlobalPointer:
        """A fresh pointer to this runtime's reply endpoint (packed into
        every request so the server knows where to answer)."""
        return GlobalPointer(
            self.context.startpoint_to(self.reply_endpoint))


def expose(context: Context, obj: object) -> GlobalPointer:
    """Publish ``obj`` at ``context``; returns a global pointer to it.

    The pointer is owned by the serving context; hand it to other
    contexts by packing it into a buffer, passing it as an RPC argument,
    or via :meth:`GlobalPointer.to_wire`.
    """
    RpcRuntime.of(context)
    endpoint = context.new_endpoint(bound_object=obj)
    return GlobalPointer(context.startpoint_to(endpoint))


# ---------------------------------------------------------------------------
# wire handlers
# ---------------------------------------------------------------------------

def _call_handler(context: Context, endpoint: Endpoint | None,
                  buffer: Buffer):
    """Threaded handler: execute the method, then send the reply."""
    assert endpoint is not None
    target = endpoint.bound_object
    seq = buffer.get_int()
    method_name = buffer.get_str()
    reply_pointer = _t.cast(GlobalPointer, unpack_value(buffer, context))
    args = unpack_values(buffer, context)
    RpcRuntime.of(context).calls_served += 1

    # Returned generator => dispatch spawns this as a process.
    def run():
        status = 0
        result: object = None
        try:
            method = getattr(target, method_name, None)
            if method is None or method_name.startswith("_"):
                raise RpcError(
                    f"{type(target).__name__} has no callable method "
                    f"{method_name!r}")
            outcome = method(*args)
            if hasattr(outcome, "send"):  # generator method: may block
                outcome = yield from _t.cast(_t.Generator, outcome)
            result = outcome
        except BaseException as exc:  # noqa: BLE001 - marshalled to caller
            status = 1
            result = (type(exc).__name__, str(exc))
        reply = Buffer()
        reply.put_int(seq)
        reply.put_int(status)
        if status:
            remote_type, message = _t.cast(tuple, result)
            reply.put_str(remote_type)
            reply.put_str(message)
        else:
            pack_value(reply, result)
        yield from reply_pointer.startpoint.rsr(REPLY_HANDLER, reply)

    return run()


def _reply_handler(context: Context, endpoint: Endpoint | None,
                   buffer: Buffer) -> None:
    assert endpoint is not None
    runtime = _t.cast(RpcRuntime, endpoint.bound_object)
    seq = buffer.get_int()
    status = buffer.get_int()
    future = runtime.pending.pop(seq, None)
    if future is None:
        raise RpcError(f"reply for unknown call {seq}")
    if status:
        future.reject(RemoteError(buffer.get_str(), buffer.get_str()))
    else:
        future.resolve(unpack_value(buffer, context))
