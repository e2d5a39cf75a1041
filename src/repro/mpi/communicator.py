"""Communicators: scoped communication spaces over a process group.

The paper discusses MPI communicators as the two-sided world's closest
analogue of a communication scope.  Our mini-MPI keeps them faithful:
a communicator is a group of world ranks plus a context id; point-to-point
and collective traffic use disjoint context spaces (the classic MPICH
trick, ``2 * id`` and ``2 * id + 1``) so user messages can never match
internal collective traffic.
"""

from __future__ import annotations

import itertools
import typing as _t

from .errors import RankError

if _t.TYPE_CHECKING:  # pragma: no cover
    from .mpi import MPIWorld

_comm_ids = itertools.count(0)


class Communicator:
    """A group of processes with a private matching context."""

    def __init__(self, world: "MPIWorld", world_ranks: _t.Sequence[int]):
        self.world = world
        self.world_ranks: tuple[int, ...] = tuple(world_ranks)
        if len(set(self.world_ranks)) != len(self.world_ranks):
            raise RankError("communicator group contains duplicate ranks")
        for rank in self.world_ranks:
            if not (0 <= rank < world.size):
                raise RankError(f"world rank {rank} out of range")
        self.id: int = next(_comm_ids)
        self._rank_of_world = {w: i for i, w in enumerate(self.world_ranks)}
        self.size: int = len(self.world_ranks)
        #: Matching context ids: user point-to-point traffic, and internal
        #: collective traffic.
        self.p2p_context: int = 2 * self.id
        self.collective_context: int = 2 * self.id + 1

    # -- group queries -----------------------------------------------------------

    def rank_of_world(self, world_rank: int) -> int:
        """Translate a world rank to this communicator's rank."""
        try:
            return self._rank_of_world[world_rank]
        except KeyError:
            raise RankError(
                f"world rank {world_rank} is not in this communicator"
            ) from None

    def world_rank(self, comm_rank: int) -> int:
        """Translate a communicator rank to the world rank."""
        if not (0 <= comm_rank < self.size):
            raise RankError(f"rank {comm_rank} out of range for size {self.size}")
        return self.world_ranks[comm_rank]

    def contains_world(self, world_rank: int) -> bool:
        return world_rank in self._rank_of_world

    # -- derivation ---------------------------------------------------------------

    def dup(self) -> "Communicator":
        """A congruent communicator with a fresh context (MPI_Comm_dup)."""
        return Communicator(self.world, self.world_ranks)

    def subgroup(self, comm_ranks: _t.Sequence[int]) -> "Communicator":
        """A new communicator over a subset of this one's ranks."""
        return Communicator(self.world,
                            [self.world_rank(r) for r in comm_ranks])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Communicator id={self.id} size={self.size}>"
