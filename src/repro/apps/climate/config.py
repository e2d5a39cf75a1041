"""Configuration for the coupled climate model (Section 4, Table 1).

The paper's setup: the Millenia coupled model — a large atmosphere (the
parallel Community Climate Model) on **16 processors** of one SP2
partition, an ocean model on **8 processors** of a second partition,
exchanging sea-surface temperature and fluxes **every two atmosphere
steps**, with MPI (MPICH on Nexus) for all communication.

Workload constants are calibrated so the baseline lands near the paper's
~105 s/timestep scale and so the *relative* effects (poll tax, drain
interference, detection latency, all-TCP collapse) reproduce Table 1's
shape; see EXPERIMENTS.md for the calibration discussion.
"""

from __future__ import annotations

import dataclasses
import enum

from ...util.units import MB, unit


class ClimateMode(enum.Enum):
    """The multimethod configurations of Table 1 (plus the no-multimethod
    baseline the text describes as an order of magnitude slower)."""

    #: No multimethod support: TCP is the only interprocess method, so
    #: *all* communication — including intra-partition halo exchanges and
    #: internal transposes — runs over TCP.
    ALL_TCP = "all_tcp"
    #: Best case (Table 1 row 1): TCP polling enabled only in the code
    #: section where the partitions communicate.
    SELECTIVE = "selective"
    #: Table 1 row 2: a dedicated forwarding node per partition receives
    #: all external TCP traffic and re-sends it over MPL.
    FORWARDING = "forwarding"
    #: Rows 3-7: unified polling with a skip_poll value for TCP.
    SKIP_POLL = "skip_poll"
    #: The paper's Section 6 future work, implemented: every context runs
    #: the online AIMD skip_poll controller instead of a manual value.
    ADAPTIVE = "adaptive"


@dataclasses.dataclass(frozen=True)
class ClimateConfig:
    """Workload shape and cost calibration for one experiment run."""

    # -- decomposition (paper values) ------------------------------------
    atmo_ranks: int = 16
    ocean_ranks: int = 8
    #: Atmosphere steps to run (must be a multiple of couple_every).
    steps: int = 4
    #: Atmosphere steps between coupler exchanges (paper: every 2).
    couple_every: int = 2

    # -- model grids -------------------------------------------------------
    atmo_nx: int = 64
    atmo_ny: int = 32
    ocean_nx: int = 64
    ocean_ny: int = 32

    # -- per-step workload, per rank (calibration) -------------------------
    #: Pure computation per atmosphere step (virtual seconds).
    atmo_compute_s: float = unit("s", 50.0)
    #: Pure computation per ocean step (virtual seconds).  The ocean is
    #: smaller; it finishes its window early and waits on the coupler.
    ocean_compute_s: float = unit("s", 42.0)
    #: Nexus operations performed per step (every one runs the polling
    #: function once) — the quantity skip_poll divides.  Calibrated so a
    #: skip_poll of 1 costs ~4 s/step of TCP selects, as in Table 1.
    ops_per_step: int = 38_000
    #: Bulk internal exchange (transpose-style) volume per rank per step,
    #: exchanged with the neighbouring rank in two phases.
    bulk_bytes_per_phase: int = 320 * MB
    bulk_phases: int = 2
    #: Fine-grained internal messages per step (modelled semi-
    #: analytically: per-message cost of the *selected* method).
    small_msgs_per_step: int = 6_000
    small_msg_bytes: int = 256

    # -- coupler ------------------------------------------------------------
    #: Flux / SST field size exchanged per atmo<->ocean pair per coupling.
    coupling_bytes: int = 2 * MB

    # -- adaptive mode --------------------------------------------------------
    #: Detection-latency budget handed to the AIMD controller in
    #: ADAPTIVE mode; should be small relative to the timestep.
    adaptive_latency_budget: float = unit("s", 0.05)

    @property
    def total_ranks(self) -> int:
        return self.atmo_ranks + self.ocean_ranks

    def __post_init__(self) -> None:
        if self.steps % self.couple_every:
            raise ValueError("steps must be a multiple of couple_every")
        if self.atmo_ranks % self.ocean_ranks:
            raise ValueError(
                "atmo_ranks must be a multiple of ocean_ranks "
                "(each ocean rank couples a fixed band of atmosphere ranks)"
            )
        if self.atmo_ny % self.atmo_ranks or self.ocean_ny % self.ocean_ranks:
            raise ValueError("grid rows must divide evenly across ranks")


#: A small, fast configuration for unit/integration tests.
TEST_CONFIG = ClimateConfig(
    atmo_ranks=4, ocean_ranks=2, steps=2, couple_every=2,
    atmo_nx=16, atmo_ny=8, ocean_nx=16, ocean_ny=8,
    atmo_compute_s=0.5, ocean_compute_s=0.4,
    ops_per_step=2_000, bulk_bytes_per_phase=4 * MB, bulk_phases=1,
    small_msgs_per_step=200, coupling_bytes=64 * 1024,
    adaptive_latency_budget=0.002,  # ~proportional to the tiny timestep
)
