"""Simulated hosts (processor nodes).

A :class:`Host` models one processor of a parallel machine: it has a CPU
(a capacity-1 :class:`~repro.simnet.resources.Resource`, so co-resident
contexts serialise their compute, as on the Intel Paragon where several
processes can share a processor) and a NIC resource used by transports that
serialise outgoing messages.

Hosts belong to a :class:`~repro.simnet.network.Machine` and optionally to
a :class:`~repro.simnet.network.Partition` (the SP2 software abstraction the
paper's experiments revolve around).
"""

from __future__ import annotations

import itertools
import typing as _t

from .resources import Resource

if _t.TYPE_CHECKING:  # pragma: no cover
    from .engine import Simulator
    from .network import Machine, Partition

_host_ids = itertools.count()


class Host:
    """One simulated processor node."""

    def __init__(self, sim: "Simulator", name: str,
                 machine: "Machine | None" = None,
                 cpu_capacity: int = 1):
        self.sim = sim
        self.id: int = next(_host_ids)
        self.name = name
        self.machine = machine
        self.partition: "Partition | None" = None
        self.cpu = Resource(sim, capacity=cpu_capacity, name=f"cpu:{name}")
        self.nic = Resource(sim, capacity=1, name=f"nic:{name}")
        #: Arbitrary attributes (e.g. "has_blocking_io") consulted by
        #: transport applicability checks and the enquiry API.
        self.attributes: dict[str, object] = {}
        self.busy_time = 0.0

    def compute(self, seconds: float):
        """Generator: occupy this host's CPU for ``seconds``.

        All simulated computation (model physics, protocol CPU overheads
        charged by transports) goes through here so that per-host busy time
        is accounted for and co-resident contexts contend realistically.
        """
        if seconds < 0:
            raise ValueError(f"negative compute time {seconds!r}")
        if seconds == 0:
            return
        yield self.cpu.request()
        try:
            yield self.sim.timeout(seconds)
            self.busy_time += seconds
        finally:
            self.cpu.release()

    # -- topology predicates ---------------------------------------------

    def same_partition(self, other: "Host") -> bool:
        return (self.partition is not None
                and self.partition is other.partition)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        part = self.partition.name if self.partition else None
        return f"<Host {self.name!r} id={self.id} partition={part!r}>"
