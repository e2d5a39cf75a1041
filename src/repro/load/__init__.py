"""``repro.load`` — deterministic workload generation, SLO gating, and
capacity planning over the multimethod stack.

The layers, bottom-up:

* :mod:`~repro.load.arrivals` — seeded arrival processes (open-loop
  Poisson with bursty modulation, closed-loop think time) and
  message-size distributions, all drawn from named
  :mod:`repro.simnet.random` substreams.
* :mod:`~repro.load.scenario` — declarative :class:`LoadScenario`:
  client fleets, routes (intra-partition MPL / inter-partition TCP /
  forwarded), stack tuning, and optional fault plans.
* :mod:`~repro.load.clients` — the engine: :func:`run_scenario`
  executes one scenario and returns a :class:`LoadResult`.
* :mod:`~repro.load.slo` — budgets (:class:`SLO`) and
  :func:`evaluate`, producing pass/fail :class:`SLOVerdict`\\ s that
  ride inside the run's :class:`~repro.core.enquiry.EnquiryReport`.
* :mod:`~repro.load.capacity` — :func:`find_capacity` bisects offered
  rate for the highest SLO-compliant operating point of a tuning.

Quick taste::

    from repro.load import (FleetSpec, LoadScenario, OpenLoop,
                            FixedSize, SLO, run_scenario, evaluate)

    scenario = LoadScenario(
        name="remote-rpc",
        fleets=(FleetSpec("rpc", clients=8, arrival=OpenLoop(rate=50.0),
                          sizes=FixedSize(2048), route="remote"),),
        skip_poll=(("tcp", 4),))
    result = run_scenario(scenario)
    verdict = evaluate(result, SLO(name="tail",
                                   p99_latency_us=20_000.0,
                                   min_delivered_fraction=0.95))
"""

from .arrivals import (
    ArrivalProcess,
    Bursty,
    ClosedLoop,
    FixedSize,
    LoadSpecError,
    LognormalSize,
    MixedRoundPattern,
    Modulation,
    OpenLoop,
    RoundOp,
    SizeDist,
)
from .capacity import CapacityProbe, CapacityResult, find_capacity
from .clients import FleetResult, LoadResult, run_scenario
from .scenario import (
    ChaosBuilder,
    FleetSpec,
    LoadScenario,
    ROUTES,
    ROUTE_LOCAL,
    ROUTE_REMOTE,
)
from .slo import (SLO, ObjectiveResult, SLOVerdict, WindowedVerdict,
                  evaluate, evaluate_windows, saturation_onset)

__all__ = [
    "ArrivalProcess",
    "Bursty",
    "CapacityProbe",
    "CapacityResult",
    "ChaosBuilder",
    "ClosedLoop",
    "FixedSize",
    "FleetResult",
    "FleetSpec",
    "LoadResult",
    "LoadScenario",
    "LoadSpecError",
    "LognormalSize",
    "MixedRoundPattern",
    "Modulation",
    "ObjectiveResult",
    "OpenLoop",
    "ROUTES",
    "ROUTE_LOCAL",
    "ROUTE_REMOTE",
    "RoundOp",
    "SLO",
    "SLOVerdict",
    "SizeDist",
    "WindowedVerdict",
    "evaluate",
    "evaluate_windows",
    "saturation_onset",
    "find_capacity",
    "run_scenario",
]
