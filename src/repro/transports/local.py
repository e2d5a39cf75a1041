"""Intracontext communication module.

An RSR whose startpoint and endpoint live in the same context never
touches a network: the buffer is handed straight to the handler dispatch
queue.  This is the first (fastest) entry of every descriptor table.
"""

from __future__ import annotations

from .base import ContextLike, Descriptor
from .fastbase import FastTransport

if False:  # pragma: no cover - typing only
    from ..simnet.node import Host


class LocalTransport(FastTransport):
    """Same-context delivery (a procedure call plus a queue operation)."""

    name = "local"
    speed_rank = 0

    def export_descriptor(self, context: ContextLike) -> Descriptor:
        return Descriptor(method=self.name, context_id=context.id)

    def applicable(self, local: ContextLike, descriptor: Descriptor,
                   remote_host: "Host") -> bool:
        return descriptor.context_id == local.id
