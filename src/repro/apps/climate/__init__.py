"""repro.apps.climate — the Millenia-style coupled climate model.

The Section 4 case study: a really-computing atmosphere (PCCM stand-in)
on 16 processors coupled to an ocean on 8 processors across two SP2
partitions, over mini-MPI on Nexus, under the multimethod configurations
of Table 1.
"""

from .atmosphere import Atmosphere
from .chaos import (
    CHAOS_TEST_CONFIG,
    CHAOS_TRANSPORTS,
    ChaosResult,
    run_chaos_climate,
)
from .config import TEST_CONFIG, ClimateConfig, ClimateMode
from .coupling import atmo_children, ocean_parent
from .grid import Slab, halo_exchange
from .model import ClimateResult, run_coupled_model
from .ocean import Ocean

__all__ = [
    "Atmosphere",
    "CHAOS_TEST_CONFIG",
    "CHAOS_TRANSPORTS",
    "ChaosResult",
    "ClimateConfig",
    "ClimateMode",
    "ClimateResult",
    "Ocean",
    "Slab",
    "TEST_CONFIG",
    "atmo_children",
    "halo_exchange",
    "ocean_parent",
    "run_chaos_climate",
    "run_coupled_model",
]
