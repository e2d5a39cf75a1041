"""The atmosphere component (PCCM stand-in).

A real (numerically executing) shallow-water-style model on a lat-lon
grid: height ``h`` and velocity ``u, v`` advanced with a conservative
finite-difference step (advection of h by the wind plus diffusion),
decomposed by latitude across the atmosphere ranks.  Every step performs
a genuine halo exchange through mini-MPI; the physics itself is simple
but conserves mass to machine precision on a periodic/reflecting domain,
which the test suite verifies.

The paper's PCCM is orders of magnitude more expensive per cell; the
virtual-time cost of a step is therefore charged from the calibrated
``atmo_compute_s`` constant (via the poll manager's ``busy_work``) while
the numpy arithmetic provides real, checkable model state.
"""

from __future__ import annotations

import numpy as np

from .grid import Slab

#: Nondimensional step parameters (stability: nu + |c| < 0.25).
DIFFUSION = 0.12
ADVECTION = 0.08
GRAVITY_FEEDBACK = 0.02


class Atmosphere:
    """One rank's share of the atmosphere state."""

    def __init__(self, rank: int, nranks: int, nx: int, ny: int,
                 seed: int = 0):
        self.rank = rank
        self.nranks = nranks
        rng = np.random.default_rng(seed)  # same global field on all ranks
        base = 100.0 + rng.standard_normal((ny, nx)).cumsum(axis=1)
        base -= base.mean()
        base += 100.0
        self.h = Slab.from_global(base, rank, nranks)
        self.u = Slab.from_global(0.5 * np.cos(
            np.linspace(0, np.pi, ny))[:, None] * np.ones((ny, nx)),
            rank, nranks)
        self.v = Slab.zeros(rank, nranks, nx, ny)

    @property
    def slabs(self) -> tuple[Slab, Slab, Slab]:
        return (self.h, self.u, self.v)

    def step_interior(self) -> None:
        """One physics step; assumes ghost rows are current."""
        h = self.h.data
        u = self.u.data
        v = self.v.data

        # Periodic in x (longitude), ghosts in y (latitude).
        def lap(f: np.ndarray) -> np.ndarray:
            return (np.roll(f, 1, axis=1)[1:-1] + np.roll(f, -1, axis=1)[1:-1]
                    + f[2:] + f[:-2] - 4.0 * f[1:-1])

        def ddx(f: np.ndarray) -> np.ndarray:
            return 0.5 * (np.roll(f, -1, axis=1)[1:-1]
                          - np.roll(f, 1, axis=1)[1:-1])

        def ddy(f: np.ndarray) -> np.ndarray:
            return 0.5 * (f[2:] - f[:-2])

        dh = (DIFFUSION * lap(h)
              - ADVECTION * (u[1:-1] * ddx(h) + v[1:-1] * ddy(h)))
        du = DIFFUSION * lap(u) - GRAVITY_FEEDBACK * ddx(h)
        dv = DIFFUSION * lap(v) - GRAVITY_FEEDBACK * ddy(h)

        self.h.interior[:] = h[1:-1] + dh
        self.u.interior[:] = u[1:-1] + du
        self.v.interior[:] = v[1:-1] + dv

    # -- coupler interface ------------------------------------------------

    def surface_fluxes(self) -> np.ndarray:
        """The flux field handed to the ocean: a smoothed function of the
        local height and wind (one value per owned cell)."""
        return (0.01 * (self.h.interior - 100.0)
                + 0.05 * np.abs(self.u.interior))

    def apply_sst(self, sst: np.ndarray) -> None:
        """Fold received sea-surface temperature back into the height
        field (bounded feedback, preserving the mean)."""
        forcing = 0.01 * (sst - sst.mean())
        self.h.interior[:] = self.h.interior + forcing

    def checksum(self) -> float:
        """Deterministic state digest used by the regression tests."""
        return float(self.h.interior.sum()
                     + 2.0 * self.u.interior.sum()
                     + 3.0 * self.v.interior.sum())
