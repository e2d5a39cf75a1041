"""Load scenarios shared by ``load_capacity`` and ``fleet_grid``.

The shapes follow ``repro.bench.load`` (steady mixed serving workload,
bursty variant, flaky inter-partition TCP window); the sizes are the
benchmark's own and every scenario takes the run's seed.
"""

from __future__ import annotations

import dataclasses
import functools

from repro.load import (Bursty, ClosedLoop, FixedSize, FleetSpec,
                        LoadScenario, LognormalSize, OpenLoop)
from repro.simnet import FaultPlan

#: Per-request service work on the serving ranks: enough Nexus ops that
#: the TCP poll tax is the dominant overhead when untuned.
SERVICE_OPS = 10
SERVICE_TIME_S = 200e-6

#: Offered-load window of the suite scenarios, sim-seconds.
SUITE_DURATION_S = 0.25


def flaky_tcp_window(bed, *, seed: int, start: float, duration: float,
                     drop_probability: float) -> FaultPlan:
    """A flaky inter-partition TCP window (a ``LoadScenario.chaos``)."""
    return FaultPlan(bed.nexus.network).flaky(
        bed.partition_a, bed.partition_b, transport="tcp",
        start=start, duration=duration,
        drop_probability=drop_probability, seed=seed)


def steady(seed: int) -> LoadScenario:
    """Open-loop Poisson remote RPC (6 clients x 60/s, 2 KiB, with
    service work) plus a closed-loop think-time fleet on the local
    route (2 clients, 10 ms think time)."""
    return LoadScenario(
        name="steady",
        fleets=(
            FleetSpec("rpc-remote", clients=6, arrival=OpenLoop(rate=60.0),
                      sizes=FixedSize(2048), route="remote",
                      service_ops=SERVICE_OPS, service_time=SERVICE_TIME_S),
            FleetSpec("interactive-local", clients=2,
                      arrival=ClosedLoop(think_time=0.01),
                      sizes=LognormalSize(median=512.0), route="local"),
        ),
        duration=SUITE_DURATION_S, seed=seed, skip_poll=(("tcp", 4),))


def bursty(seed: int) -> LoadScenario:
    base = steady(seed)
    burst = OpenLoop(rate=60.0, modulation=Bursty(
        period=0.1, duty=0.25, boost=3.0, quiet=0.25))
    return dataclasses.replace(
        base, name="bursty",
        fleets=(dataclasses.replace(base.fleets[0], arrival=burst),
                base.fleets[1]))


def flaky_tcp(seed: int) -> LoadScenario:
    return dataclasses.replace(
        steady(seed), name="flaky-tcp",
        chaos=functools.partial(flaky_tcp_window, seed=seed + 7, start=0.1,
                                duration=0.1, drop_probability=0.2))
