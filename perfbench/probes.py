"""Fixed micro-probes timed from outside, run once per traced run.

They do not depend on the workload: they price one layer boundary each
with the same small program, so a change in ``core`` or ``fleet`` shows
here even when the workload's own numbers are noisy.  Each is the best
of ``REPEATS``.
"""

from __future__ import annotations

import repro.obs as obs
from repro.apps.dualpingpong import dual_pingpong
from repro.apps.pingpong import nexus_pingpong, raw_transport_pingpong
from repro.fleet import FleetPool, FleetTask

from .tracer import Tracer

REPEATS = 3
PINGPONG_ROUNDTRIPS = 300
DUAL_ROUNDTRIPS = 150
DUAL_SKIP = 20
POOL_WORKERS = 2


def _best(tracer: Tracer, name: str, fn, *args, **kwargs) -> float:
    times = []
    for _ in range(REPEATS):
        tracer.call(name, fn, *args, **kwargs)
        span = tracer.spans[-1]
        times.append(span["end"] - span["start"])
    return min(times)


def _traced_dual_pingpong() -> None:
    with obs.collecting():
        dual_pingpong(0, DUAL_SKIP, mpl_roundtrips=DUAL_ROUNDTRIPS)


def _pool_round_trip() -> None:
    """Start the pool and get one no-op answer per task back: process
    spawn, interpreter start and the workers' imports."""
    with FleetPool(POOL_WORKERS) as pool:
        outcomes = pool.run([FleetTask(key=f"noop-{i}", runner="time:time")
                             for i in range(POOL_WORKERS)])
    for outcome in outcomes.values():
        if outcome.error is not None:
            raise outcome.error


def run_probes(tracer: Tracer) -> dict[str, float]:
    """``core``'s cost is ``nexus_single_s`` and ``nexus_multi_s`` minus
    ``raw_pingpong_s``; ``trace_on_off_x`` is the same dual ping-pong
    traced over untraced."""
    raw = _best(tracer, "apps.raw_transport_pingpong",
                raw_transport_pingpong, 0, PINGPONG_ROUNDTRIPS)
    single = _best(tracer, "apps.nexus_pingpong[mpl]", nexus_pingpong,
                   0, PINGPONG_ROUNDTRIPS, methods=("local", "mpl"))
    multi = _best(tracer, "apps.nexus_pingpong[mpl+tcp]", nexus_pingpong,
                  0, PINGPONG_ROUNDTRIPS, methods=("local", "mpl", "tcp"))
    untraced = _best(tracer, "apps.dual_pingpong", dual_pingpong,
                     0, DUAL_SKIP, mpl_roundtrips=DUAL_ROUNDTRIPS)
    traced = _best(tracer, "apps.dual_pingpong[traced]",
                   _traced_dual_pingpong)
    pool = _best(tracer, "fleet.FleetPool", _pool_round_trip)
    return {
        "transports.raw_pingpong_s": raw,
        "core.nexus_single_s": single,
        "core.nexus_multi_s": multi,
        "obs.trace_on_off_x": traced / untraced,
        "fleet.pool_start_s": pool,
    }
