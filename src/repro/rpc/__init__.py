"""repro.rpc — global pointers and remote method invocation over RSRs.

The paper notes that "a local address can be associated with an
endpoint, in which case any startpoint associated with the endpoint can
be thought of as a 'global pointer' to that address", and that
startpoint copies "can be used as global names for objects ... anywhere
in a distributed system".  CC++ — one of the languages implemented on
Nexus — exposed exactly this as remote method invocation on global
pointers.

This package is that layer:

* :func:`expose` publishes a Python object at a context and returns a
  :class:`GlobalPointer` to it;
* a global pointer supports ``call`` (request/response) and ``acall``
  (returns an :class:`RpcFuture`);
* pointers are mobile: pack one into a buffer (or pass it as an RPC
  argument!) and the receiving context gets a working pointer whose
  transport is re-selected locally — the Figure 3 mechanism, lifted to
  the object level;
* remote exceptions propagate: a failing method raises
  :class:`RemoteError` at the caller.
"""

from .errors import RemoteError, RpcError
from .futures import RpcFuture
from .pointer import GlobalPointer
from .service import RpcRuntime, expose

__all__ = [
    "GlobalPointer",
    "RemoteError",
    "RpcError",
    "RpcFuture",
    "RpcRuntime",
    "expose",
]
