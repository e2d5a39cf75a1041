"""Placement search: enumerate, rank statically, validate by simulation.

The search space for a load scenario is small but real: route remote
traffic directly, or install the §4.3 forwarding processor on any one
of the remote-serving ranks.  :func:`candidate_placements` enumerates
and prices every candidate with the static model
(:mod:`repro.place.cost`); :func:`neighborhood_search` hill-climbs the
same space move-by-move (the shape that scales when the space grows);
:func:`search_placements` validates the statically best ``top_k``
candidates by *simulated capacity* — one deterministic bisection per
candidate, fanned out across processes as :class:`repro.fleet`
``place.capacity`` tasks and merged in task-key order, so serial and
parallel searches return byte-identical results.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..fleet.pool import FleetTask, run_serial, shared_pool
from ..obs.graph import CommGraph
from .cost import PlacementCost, predict_placement, serving_demand
from .errors import PlacementError
from .plan import (
    Placement,
    compile_scenario,
    direct_placement,
    forwarding_placement,
)

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..load.capacity import SLO, CapacityResult
    from ..load.scenario import LoadScenario


@dataclasses.dataclass(frozen=True)
class Candidate:
    """One placement with its static price."""

    label: str
    placement: Placement
    static: PlacementCost


@dataclasses.dataclass(frozen=True)
class ValidatedCandidate:
    """A candidate that survived to simulated-capacity validation."""

    label: str
    placement: Placement
    static: PlacementCost
    result: "CapacityResult"

    @property
    def capacity(self) -> float:
        return self.result.capacity


@dataclasses.dataclass
class SearchResult:
    """Everything one placement search decided, deterministically."""

    #: Full static ranking, best first.
    candidates: tuple[Candidate, ...]
    #: The validated top-k, still in static-rank order.
    validated: tuple[ValidatedCandidate, ...]
    #: Winner by (simulated capacity, static capacity, label).
    best: ValidatedCandidate

    def validated_by_label(self) -> dict[str, ValidatedCandidate]:
        return {v.label: v for v in self.validated}

    def summary(self) -> str:
        lines = [f"placement search: {len(self.candidates)} candidates, "
                 f"{len(self.validated)} validated"]
        for v in self.validated:
            marker = " <== best" if v.label == self.best.label else ""
            lines.append(
                f"  {v.label:12s} static {v.static.static_capacity:7.1f}/s"
                f"  simulated {v.capacity:7.1f}/s{marker}")
        return "\n".join(lines)


def _label(placement: Placement) -> str:
    if placement.forwarder is None:
        return "direct"
    return f"forward@{placement.forwarder}"


def candidate_placements(graph: CommGraph, scenario: "LoadScenario", *,
                         method: str | None = None,
                         fast_method: str = "mpl",
                         assignment: _t.Mapping[int, str] | None = None
                         ) -> list[Candidate]:
    """Every candidate, statically priced, best first.

    ``method`` defaults to the scenario's slow inter-partition method
    (the last transport, tcp in the stock testbed); ``assignment`` is
    attached to each placement for provenance (the partitioners'
    output).
    """
    slow = method or scenario.transports[-1]
    pairs = tuple(sorted((rank, label)
                         for rank, label in (assignment or {}).items()))
    demand = serving_demand(graph)
    placements = [direct_placement(method=slow)]
    for index, _share in demand.shares:
        placements.append(forwarding_placement(
            forwarder=index, method=slow, fast_method=fast_method))
    candidates = []
    for placement in placements:
        placement = dataclasses.replace(placement, assignment=pairs)
        candidates.append(Candidate(
            label=_label(placement),
            placement=placement,
            static=predict_placement(graph, scenario, placement,
                                     demand=demand)))
    candidates.sort(key=lambda c: (-c.static.static_capacity, c.label))
    return candidates


def neighborhood_search(graph: CommGraph, scenario: "LoadScenario",
                        start: Placement) -> Candidate:
    """Greedy hill-climb over single forwarder moves.

    From any starting placement, repeatedly take the best strictly
    improving move (move the forwarder to another serving rank, install
    it, or tear it down) until none improves the static capacity.  On
    this space the climb reaches the enumeration's optimum; it exists
    as the search shape that stays affordable when the candidate space
    grows combinatorial.
    """
    demand = serving_demand(graph)
    ranks = [index for index, _share in demand.shares]

    def moves(placement: Placement) -> list[Placement]:
        if placement.forwarder is None:
            return [dataclasses.replace(placement, forwarder=index)
                    for index in ranks]
        return ([dataclasses.replace(placement, forwarder=None)]
                + [dataclasses.replace(placement, forwarder=index)
                   for index in ranks if index != placement.forwarder])

    current = Candidate(
        label=_label(start), placement=start,
        static=predict_placement(graph, scenario, start, demand=demand))
    while True:
        neighbours = [
            Candidate(label=_label(move), placement=move,
                      static=predict_placement(graph, scenario, move,
                                               demand=demand))
            for move in moves(current.placement)]
        best = min(neighbours,
                   key=lambda c: (-c.static.static_capacity, c.label))
        if best.static.static_capacity <= current.static.static_capacity:
            return current
        current = best


def ordering_agreement(validated: _t.Sequence[ValidatedCandidate]) -> float:
    """Kendall-style concordance between static and simulated ranking.

    Over all candidate pairs with *distinct* static capacities: the
    fraction whose simulated capacities do not invert the static order
    (simulated ties count as concordant — a coarse bisection cannot
    disagree by tying).  1.0 means the static model never mis-ranks.
    """
    pairs = 0
    concordant = 0
    for i, a in enumerate(validated):
        for b in validated[i + 1:]:
            da = a.static.static_capacity - b.static.static_capacity
            db = a.capacity - b.capacity
            if da == 0:
                continue
            pairs += 1
            if db == 0 or (da > 0) == (db > 0):
                concordant += 1
    return concordant / pairs if pairs else 1.0


def search_placements(graph: CommGraph, scenario: "LoadScenario",
                      slo: "SLO", *, top_k: int = 4,
                      low: float, high: float, tolerance: float = 0.05,
                      max_probes: int = 12, jobs: int = 1,
                      assignment: _t.Mapping[int, str] | None = None
                      ) -> SearchResult:
    """The full pipeline: rank statically, validate top-k by capacity.

    ``jobs > 1`` fans the per-candidate capacity searches out over the
    process's warm :mod:`repro.fleet` pool; outcomes merge in task-key
    order, so the result is byte-identical at any ``jobs`` level.
    ``assignment`` (a partitioner's output) rides along on every
    candidate for provenance.
    """
    candidates = candidate_placements(graph, scenario,
                                      assignment=assignment)
    if top_k < 1:
        raise PlacementError(f"top_k must be >= 1, got {top_k}")
    shortlist = candidates[:top_k]
    tasks = [FleetTask(
        key=candidate.label,
        runner="place.capacity",
        payload={
            "scenario": compile_scenario(scenario, candidate.placement),
            "slo": slo,
            "low": low,
            "high": high,
            "tolerance": tolerance,
            "max_probes": max_probes,
        }) for candidate in shortlist]
    if jobs > 1:
        with shared_pool(min(jobs, len(tasks))) as pool:
            outcomes = pool.run(tasks)
    else:
        outcomes = run_serial(tasks)
    validated = []
    for candidate in shortlist:
        outcome = outcomes[candidate.label]
        if outcome.error is not None:
            raise PlacementError(
                f"capacity validation failed for {candidate.label}: "
                f"{outcome.error.message}")
        validated.append(ValidatedCandidate(
            label=candidate.label,
            placement=candidate.placement,
            static=candidate.static,
            result=_t.cast("CapacityResult", outcome.result)))
    best = max(validated,
               key=lambda v: (v.capacity, v.static.static_capacity,
                              v.label))
    return SearchResult(candidates=tuple(candidates),
                        validated=tuple(validated), best=best)


__all__ = [
    "Candidate",
    "SearchResult",
    "ValidatedCandidate",
    "candidate_placements",
    "neighborhood_search",
    "ordering_agreement",
    "search_placements",
]
