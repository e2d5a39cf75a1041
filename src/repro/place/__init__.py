"""repro.place — graph-partitioned placement planning (ROADMAP item 2).

The pipeline: extract the weighted communication graph the runtime
already records (:mod:`repro.obs.graph`), partition it
(:mod:`repro.place.partition`), price candidate placements with a
static cost model calibrated against the transport constants
(:mod:`repro.place.cost`), compile the survivors into load scenarios
(:mod:`repro.place.plan`) and validate the top candidates by simulated
capacity, fanned out across processes via :mod:`repro.fleet`
(:mod:`repro.place.search`).  Every stage is byte-deterministic.
"""

from .cost import (
    PartitionCost,
    PlacementCost,
    ServingDemand,
    edge_wire_cost,
    partition_cost,
    poll_tax_per_op,
    predict_placement,
    serving_demand,
)
from .errors import PlacementError
from .partition import (
    cut_weight,
    kernighan_lin_refine,
    random_partition,
    spectral_partition,
)
from .plan import (
    PLAN_SCHEMA,
    PLAN_SCHEMA_VERSION,
    Placement,
    compile_scenario,
    direct_placement,
    forwarding_placement,
    placement_document,
    write_placement,
)
from .search import (
    Candidate,
    SearchResult,
    ValidatedCandidate,
    candidate_placements,
    neighborhood_search,
    ordering_agreement,
    search_placements,
)

__all__ = [
    "PLAN_SCHEMA",
    "PLAN_SCHEMA_VERSION",
    "Candidate",
    "PartitionCost",
    "Placement",
    "PlacementCost",
    "PlacementError",
    "SearchResult",
    "ServingDemand",
    "ValidatedCandidate",
    "candidate_placements",
    "compile_scenario",
    "cut_weight",
    "direct_placement",
    "edge_wire_cost",
    "forwarding_placement",
    "kernighan_lin_refine",
    "neighborhood_search",
    "ordering_agreement",
    "partition_cost",
    "placement_document",
    "poll_tax_per_op",
    "predict_placement",
    "random_partition",
    "search_placements",
    "serving_demand",
    "spectral_partition",
]
