"""A mixed intra/inter-partition workload runnable over p4, PVM, and Nexus.

Four processes, two per SP2 partition.  The traffic shape is a
:class:`~repro.load.arrivals.MixedRoundPattern` — each round every
process exchanges ``local_bytes`` with its partition-local partner;
every ``remote_every`` rounds it also exchanges ``remote_bytes`` with
its counterpart in the other partition.  The same pattern runs over:

* ``"p4"``    — hard-coded MPL/TCP, both polled always;
* ``"pvm"``   — hard-coded MPL + mandatory pvmd relay for external;
* ``"nexus"`` — mini-MPI on the full multimethod stack, with a
  configurable TCP ``skip_poll`` (the knob the baselines lack).

The interesting comparison (``python -m repro.bench baselines``):
Nexus at ``skip_poll=1`` matches p4's cost structure; *tuned* Nexus
beats p4 (nothing in p4 can express "check TCP less often"); PVM's
forced relay is slowest for external traffic.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..core.runtime import Nexus
from ..load.arrivals import MixedRoundPattern
from ..mpi.datatypes import Padded
from ..mpi.mpi import MPIWorld
from ..testbeds import make_sp2
from .p4 import P4System
from .pvm import PvmSystem

TAG_LOCAL = 1
TAG_REMOTE = 2


@dataclasses.dataclass(frozen=True)
class MixedWorkloadResult:
    """Outcome of one mixed-workload run."""

    system: str
    skip_poll: int
    rounds: int
    total_time: float

    @property
    def time_per_round(self) -> float:
        return self.total_time / self.rounds


def _partners(pid: int) -> tuple[int, int]:
    """(local partner, remote counterpart) for the 2+2 layout."""
    local = pid ^ 1
    remote = (pid + 2) % 4
    return local, remote


def run_mixed_workload(system: str, *, rounds: int = 30,
                       local_bytes: int = 2048,
                       remote_bytes: int = 16 * 1024,
                       remote_every: int = 5,
                       skip_poll: int = 1) -> MixedWorkloadResult:
    """Run the workload over one system; returns total virtual time."""
    bed = make_sp2(nodes_a=2, nodes_b=2)
    nexus = bed.nexus
    contexts = [nexus.context(h, f"p{i}") for i, h in enumerate(bed.hosts)]
    pattern = MixedRoundPattern(local_bytes=local_bytes,
                                remote_bytes=remote_bytes,
                                remote_every=remote_every)

    if system == "nexus":
        bodies = _nexus_bodies(nexus, contexts, rounds, pattern, skip_poll)
    elif system == "p4":
        bodies = _baseline_bodies(P4System(nexus, contexts), rounds, pattern)
    elif system == "pvm":
        bodies = _baseline_bodies(PvmSystem.build(nexus, contexts), rounds,
                                  pattern)
    else:
        raise ValueError(f"unknown system {system!r}")

    handles = [nexus.spawn(body, name=f"{system}:p{i}")
               for i, body in enumerate(bodies)]
    nexus.run(until=nexus.sim.all_of(handles))
    return MixedWorkloadResult(
        system=system,
        skip_poll=skip_poll if system == "nexus" else 1,
        rounds=rounds,
        total_time=nexus.now,
    )


def _baseline_bodies(system: P4System | PvmSystem, rounds: int,
                     pattern: MixedRoundPattern) -> list[_t.Generator]:
    def body(pid: int):
        proc = system.process(pid)
        local, remote = _partners(pid)
        for op in pattern.rounds(rounds):
            yield from proc.send(local, TAG_LOCAL, op.local_bytes)
            yield from proc.recv(TAG_LOCAL)
            if op.remote_bytes is not None:
                yield from proc.send(remote, TAG_REMOTE, op.remote_bytes)
                yield from proc.recv(TAG_REMOTE)

    return [body(pid) for pid in range(4)]


def _nexus_bodies(nexus: Nexus, contexts, rounds: int,
                  pattern: MixedRoundPattern,
                  skip_poll: int) -> list[_t.Generator]:
    for ctx in contexts:
        ctx.poll_manager.set_skip("tcp", skip_poll)
    world = MPIWorld(nexus, contexts)

    def body(pid: int):
        proc = world.process(pid)
        local, remote = _partners(pid)
        for op in pattern.rounds(rounds):
            yield from proc.sendrecv(Padded(None, op.local_bytes), local,
                                     TAG_LOCAL, local, TAG_LOCAL)
            if op.remote_bytes is not None:
                yield from proc.sendrecv(Padded(None, op.remote_bytes),
                                         remote, TAG_REMOTE, remote,
                                         TAG_REMOTE)

    return [body(pid) for pid in range(4)]
