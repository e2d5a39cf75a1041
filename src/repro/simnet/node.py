"""Simulated hosts (processor nodes).

A :class:`Host` is a place: one processor of a parallel machine, named
and numbered, that contexts live on and that transports route between.
It models no CPU or NIC contention; every simulated cost is a delay the
caller charges itself.

Hosts belong to a :class:`~repro.simnet.network.Machine` and optionally to
a :class:`~repro.simnet.network.Partition` (the SP2 software abstraction the
paper's experiments revolve around).
"""

from __future__ import annotations

import itertools
import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover
    from .network import Machine, Partition

_host_ids = itertools.count()


class Host:
    """One simulated processor node."""

    def __init__(self, name: str, machine: "Machine | None" = None):
        self.id: int = next(_host_ids)
        self.name = name
        self.machine = machine
        self.partition: "Partition | None" = None
        #: Arbitrary attributes (e.g. "has_blocking_io") consulted by
        #: transport applicability checks and the enquiry API.
        self.attributes: dict[str, object] = {}

    # -- topology predicates ---------------------------------------------

    def same_partition(self, other: "Host") -> bool:
        return (self.partition is not None
                and self.partition is other.partition)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        part = self.partition.name if self.partition else None
        return f"<Host {self.name!r} id={self.id} partition={part!r}>"
