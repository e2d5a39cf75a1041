"""SLO-gated load scenarios and capacity bisection.

Open loop: Poisson client fleets send on their schedule whatever the
servers do (6 clients x 60/s steady, bursty, and under a flaky TCP
window), beside one closed-loop think-time fleet; all in simulated
time.  Then ``find_capacity`` bisects offered rate (200-6000 RSR/s, up
to 6 probes) for the tuned-``skip_poll`` and forwarding variants.
``run_scenario`` always keeps the obs metrics and timeline registry
on, so this is ``obs`` as a registry, ``core``'s retry/health/failover
slow path, and the bisection's probe count.
"""

from __future__ import annotations

import dataclasses
import statistics
import time

from repro.fleet.merge import load_result_summary
from repro.load import (SLO, FixedSize, FleetSpec, LoadScenario, OpenLoop,
                        evaluate, find_capacity, run_scenario)
from repro.place import forwarding_placement

from . import Finished, scenarios

#: skip_poll for the tuned capacity variant (interior optimum region).
TUNED_SKIP = 10
CAPACITY_DURATION_S = 0.2
#: The bracket and the probe budget are chosen so that every seed probes
#: the same four rates: 1000 passes and 4200 fails for both variants,
#: and 2600 sits well below the tuned cliff and well above the
#: forwarding one (200 of 200 seeds), so the fourth probe is 3400 or
#: 1800 and the work does not depend on how it fares.
CAPACITY_LOW = 1000.0
CAPACITY_HIGH = 4200.0
CAPACITY_TOLERANCE = 0.05
CAPACITY_MAX_PROBES = 4
#: Goodput is loose on purpose: 200 Poisson arrivals at the low rate
#: must not fail on arrival noise alone.
CAPACITY_SLO = SLO(name="capacity", p99_latency_us=50_000.0,
                   min_goodput_fraction=0.75)

#: Enforced per-window p99 budget for healthy runs, and the
#: detection-only one for the flaky run (see ``repro.bench.load``).
STEADY_WINDOW_P99_US = 25_000.0
FLAKY_WINDOW_P99_US = 7_500.0
WARMUP_WINDOWS = 2


def _slos() -> dict[str, SLO]:
    steady = SLO(name="steady", p50_latency_us=10_000.0,
                 p99_latency_us=50_000.0, min_goodput_fraction=0.85,
                 max_drop_fraction=0.01, max_retry_fraction=0.01,
                 window_p99_latency_us=STEADY_WINDOW_P99_US,
                 warmup_windows=WARMUP_WINDOWS)
    return {
        "steady": steady,
        "bursty": dataclasses.replace(steady, name="bursty"),
        "flaky-tcp": dataclasses.replace(
            steady, name="flaky", max_retry_fraction=0.25,
            window_p99_latency_us=FLAKY_WINDOW_P99_US,
            enforce_windows=False),
    }


@dataclasses.dataclass(frozen=True)
class Inputs:
    suite: dict[str, LoadScenario]
    slos: dict[str, SLO]
    variants: dict[str, LoadScenario]


def build(seed, scratch):
    suite = {s.name: s for s in (scenarios.steady(seed),
                                 scenarios.bursty(seed),
                                 scenarios.flaky_tcp(seed))}
    serving = LoadScenario(
        name="serving",
        fleets=(FleetSpec("rpc", clients=8, arrival=OpenLoop(rate=30.0),
                          sizes=FixedSize(1024), route="remote",
                          service_ops=scenarios.SERVICE_OPS,
                          service_time=scenarios.SERVICE_TIME_S),),
        duration=CAPACITY_DURATION_S, seed=seed)
    variants = {
        "tuned-skip-poll": dataclasses.replace(
            serving, name="tuned-skip-poll",
            skip_poll=(("tcp", TUNED_SKIP),)),
        "forwarding": dataclasses.replace(
            serving, name="forwarding", placement=forwarding_placement()),
    }
    return Inputs(suite, _slos(), variants)


def run(inputs, tracer):
    results, verdicts, capacities = {}, {}, {}
    for name, scenario in inputs.suite.items():
        results[name] = tracer.call("load.run_scenario", run_scenario,
                                    scenario)
        verdicts[name] = tracer.call("load.evaluate", evaluate,
                                     results[name], inputs.slos[name])
    probe_times = []
    on_probe = ((lambda probe: probe_times.append(time.perf_counter()))
                if tracer.enabled else None)
    probe_walls = []
    for name, variant in inputs.variants.items():
        started = time.perf_counter()
        del probe_times[:]
        capacities[name] = tracer.call(
            "load.find_capacity", find_capacity, variant, CAPACITY_SLO,
            low=CAPACITY_LOW, high=CAPACITY_HIGH,
            tolerance=CAPACITY_TOLERANCE, max_probes=CAPACITY_MAX_PROBES,
            on_probe=on_probe)
        probe_walls += [b - a for a, b in
                        zip([started] + probe_times, probe_times)]

    def finish():
        tuned = capacities["tuned-skip-poll"].capacity
        forwarding = capacities["forwarding"].capacity
        assert tuned > forwarding > 0.0, (
            f"tuned skip_poll capacity ({tuned:.0f}/s) should exceed the "
            f"forwarding processor's ({forwarding:.0f}/s)")
        return Finished(
            {"scenarios": {name: load_result_summary(result)
                           for name, result in results.items()},
             "verdicts": {name: verdict.as_dict()
                          for name, verdict in verdicts.items()},
             "capacities": {name: capacity.as_dict()
                            for name, capacity in capacities.items()}},
            layer={
                "load.probes": sum(len(c.probes)
                                   for c in capacities.values()),
                "load.offered": sum(r.offered for r in results.values()),
                "load.delivered": sum(r.delivered
                                      for r in results.values()),
                "load.probe_wall_med_s": (statistics.median(probe_walls)
                                          if probe_walls else 0.0),
                "load.suite_s": tracer.seconds("load.run_scenario",
                                               "load.evaluate"),
                "load.capacity_s": tracer.seconds("load.find_capacity"),
            })

    return finish
