"""Domain decomposition and halo exchange for the climate components.

Both models use a 1-D latitude (row) decomposition: rank *r* of *n* owns
``ny / n`` consecutive rows of an ``ny × nx`` grid, with one ghost row on
each cut edge.  Longitudes (columns) are periodic and local.  Halo
exchange swaps edge rows with the north/south neighbours via mini-MPI
``sendrecv``, which in turn flows over whatever method the multimethod
machinery selected — MPL inside a partition, TCP in the all-TCP mode.
"""

from __future__ import annotations

import dataclasses
import typing as _t

import numpy as np

if _t.TYPE_CHECKING:  # pragma: no cover
    from ...mpi.communicator import Communicator
    from ...mpi.mpi import MpiProcess

#: Tag space for halo traffic (one tag per direction).
TAG_HALO_NORTH = 101
TAG_HALO_SOUTH = 102


@dataclasses.dataclass
class Slab:
    """One rank's share of a decomposed 2-D field (with ghost rows).

    ``data`` has shape ``(local_ny + 2, nx)``: row 0 is the south ghost,
    row -1 the north ghost, rows 1..local_ny the owned interior.
    """

    rank: int
    nranks: int
    nx: int
    ny: int
    data: np.ndarray

    @classmethod
    def zeros(cls, rank: int, nranks: int, nx: int, ny: int) -> "Slab":
        local_ny = ny // nranks
        return cls(rank=rank, nranks=nranks, nx=nx, ny=ny,
                   data=np.zeros((local_ny + 2, nx)))

    @classmethod
    def from_global(cls, field: np.ndarray, rank: int, nranks: int) -> "Slab":
        """Scatter-style construction from a full global field."""
        ny, nx = field.shape
        local_ny = ny // nranks
        slab = cls.zeros(rank, nranks, nx, ny)
        slab.interior[:] = field[rank * local_ny:(rank + 1) * local_ny]
        return slab

    @property
    def local_ny(self) -> int:
        return self.data.shape[0] - 2

    @property
    def interior(self) -> np.ndarray:
        """View of the owned rows (no ghosts)."""
        return self.data[1:-1]

    @property
    def north_rank(self) -> int | None:
        """Neighbour owning the rows above mine (None at the pole)."""
        return self.rank + 1 if self.rank + 1 < self.nranks else None

    @property
    def south_rank(self) -> int | None:
        return self.rank - 1 if self.rank > 0 else None

    def fill_boundary_ghosts(self) -> None:
        """Zero-gradient condition at the physical (pole) boundaries."""
        if self.south_rank is None:
            self.data[0] = self.data[1]
        if self.north_rank is None:
            self.data[-1] = self.data[-2]


def halo_exchange(proc: "MpiProcess", comm: "Communicator", slab: Slab):
    """Generator: swap edge rows with both neighbours.

    All receives are posted first, then all sends, then a wait on each —
    fully parallel across the rank chain (no serialised neighbour
    dependency).  My top interior row travels north with
    ``TAG_HALO_NORTH``; my bottom row south with ``TAG_HALO_SOUTH``; tags
    name the direction of travel so the pairs match.  Pole ranks apply a
    zero-gradient boundary instead.
    """
    north = slab.north_rank
    south = slab.south_rank
    recvs = []
    if north is not None:
        recvs.append(("north", proc.irecv(north, TAG_HALO_SOUTH, comm)))
    if south is not None:
        recvs.append(("south", proc.irecv(south, TAG_HALO_NORTH, comm)))
    if north is not None:
        yield from proc.send(slab.data[-2].copy(), north, TAG_HALO_NORTH,
                             comm)
    if south is not None:
        yield from proc.send(slab.data[1].copy(), south, TAG_HALO_SOUTH,
                             comm)
    for side, request in recvs:
        received, _status = yield from request.wait()
        if side == "north":
            slab.data[-1] = _t.cast(np.ndarray, received)
        else:
            slab.data[0] = _t.cast(np.ndarray, received)
    slab.fill_boundary_ghosts()
