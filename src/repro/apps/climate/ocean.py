"""The ocean component (U. Wisconsin ocean model stand-in).

A diffusive slab ocean: sea-surface temperature ``sst`` relaxed toward
the atmospheric flux forcing, with lateral diffusion and the same 1-D
latitude decomposition and halo machinery as the atmosphere.  Runs on
the paper's 8 processors in the second SP2 partition.
"""

from __future__ import annotations

import numpy as np

from .grid import Slab

DIFFUSION = 0.15
RELAXATION = 0.05


class Ocean:
    """One rank's share of the ocean state."""

    def __init__(self, rank: int, nranks: int, nx: int, ny: int,
                 seed: int = 1):
        self.rank = rank
        self.nranks = nranks
        rng = np.random.default_rng(seed)
        base = 15.0 + 10.0 * np.cos(
            np.linspace(-np.pi / 2, np.pi / 2, ny))[:, None] * np.ones((ny, nx))
        base += 0.1 * rng.standard_normal((ny, nx))
        self.sst = Slab.from_global(base, rank, nranks)
        self.flux = Slab.zeros(rank, nranks, nx, ny)
        self.steps_taken = 0

    def step_interior(self) -> None:
        """One diffusion + relaxation step; assumes ghosts are current."""
        t = self.sst.data
        lap = (np.roll(t, 1, axis=1)[1:-1] + np.roll(t, -1, axis=1)[1:-1]
               + t[2:] + t[:-2] - 4.0 * t[1:-1])
        self.sst.interior[:] = (t[1:-1] + DIFFUSION * lap
                                + RELAXATION * self.flux.interior)
        self.steps_taken += 1

    # -- coupler interface ------------------------------------------------

    def surface_temperature(self) -> np.ndarray:
        """SST field returned to the atmosphere."""
        return self.sst.interior.copy()

    def checksum(self) -> float:
        return float(self.sst.interior.sum() + 2.0 * self.flux.interior.sum())
