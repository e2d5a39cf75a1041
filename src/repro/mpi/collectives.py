"""Collective operations built on mini-MPI point-to-point.

Linear gather and scatter, the two the satellite pipeline runs.  All
traffic flows in the communicator's *collective* context with a
per-operation sequence tag, so user point-to-point traffic can never
interfere.

Every function is a generator taking ``(proc, ..., comm)`` and must be
called by **all** members of ``comm`` in the same order.
"""

from __future__ import annotations

import typing as _t

from .communicator import Communicator
from .datatypes import Payload
from .errors import MpiError

if _t.TYPE_CHECKING:  # pragma: no cover
    from .mpi import MpiProcess


def gather(proc: "MpiProcess", value: Payload, root: int,
           comm: Communicator):
    """Linear gather; root returns the list indexed by comm rank."""
    n = comm.size
    rank = comm.rank_of_world(proc.rank)
    tag = proc.next_collective_tag(comm)
    if rank != root:
        yield from proc.send(value, root, tag, comm, collective=True)
        return None
    gathered: list[Payload] = [None] * n
    gathered[root] = value
    for source in range(n):
        if source == root:
            continue
        item, _status = yield from proc.recv(source, tag, comm,
                                             collective=True)
        gathered[source] = item
    return gathered


def scatter(proc: "MpiProcess", values: _t.Sequence[Payload] | None,
            root: int, comm: Communicator):
    """Linear scatter from root; returns this rank's item."""
    n = comm.size
    rank = comm.rank_of_world(proc.rank)
    tag = proc.next_collective_tag(comm)
    if rank == root:
        if values is None or len(values) != n:
            raise MpiError(
                f"scatter root needs exactly {n} values, got "
                f"{None if values is None else len(values)}"
            )
        for dest in range(n):
            if dest == root:
                continue
            yield from proc.send(values[dest], dest, tag, comm,
                                 collective=True)
        return values[root]
    item, _status = yield from proc.recv(root, tag, comm, collective=True)
    return item
