"""The span path: emit, spool, fold, extract, export.

Open loop (Poisson fleets in simulated time).  A forwarding scenario
runs under ``obs.collecting()`` with its spans spooled to sharded JSONL
and is folded back with ``fold_stream``; a chaos scenario (flaky TCP
window, UDP as the failover method) is traced in memory and goes
through ``extract_graph`` and ``extract_critical_paths``; then the
timeline, graph and critical-path documents are written to the run's
scratch directory.  The same layers as ``load_capacity`` used the other
way round: ``obs`` as span writer and reader.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import os
import shutil

import repro.obs as obs
from repro.fleet.merge import load_result_summary
from repro.load import (SLO, FixedSize, FleetSpec, LoadScenario, OpenLoop,
                        evaluate, run_scenario)
from repro.obs.critpath import extract_critical_paths, write_critpaths
from repro.obs.graph import extract_graph, write_graph
from repro.obs.stream import StreamConfig, fold_stream
from repro.obs.timeline import write_timeline
from repro.place import forwarding_placement

from . import Finished, scenarios

FORWARD_CLIENTS = 6
FORWARD_RATE = 150.0
FORWARD_DURATION_S = 1.0
CHAOS_CLIENTS = 6
CHAOS_RATE = 120.0
CHAOS_DURATION_S = 1.0
FAULT_START_S = 0.3
FAULT_DURATION_S = 0.25
DROP_PROBABILITY = 0.6
#: Small enough that the forwarding run rotates through several shards.
SHARD_MAX_RECORDS = 4000
TOP_PATHS = 5


@dataclasses.dataclass(frozen=True)
class Inputs:
    forward: LoadScenario
    chaos: LoadScenario
    chaos_slo: SLO
    scratch: str


def build(seed, scratch):
    forward = LoadScenario(
        name="forward",
        fleets=(FleetSpec("rpc-forward", clients=FORWARD_CLIENTS,
                          arrival=OpenLoop(rate=FORWARD_RATE),
                          sizes=FixedSize(1024), route="remote"),),
        duration=FORWARD_DURATION_S, seed=seed, timeline_windows=20,
        remote_servers=3, placement=forwarding_placement(),
        skip_poll=(("tcp", 4),))
    chaos = LoadScenario(
        name="chaos",
        fleets=(FleetSpec("rpc-remote", clients=CHAOS_CLIENTS,
                          arrival=OpenLoop(rate=CHAOS_RATE),
                          sizes=FixedSize(2048), route="remote",
                          service_ops=scenarios.SERVICE_OPS,
                          service_time=scenarios.SERVICE_TIME_S),),
        duration=CHAOS_DURATION_S, seed=seed, timeline_windows=20,
        transports=("local", "mpl", "tcp", "udp"), skip_poll=(("tcp", 4),),
        chaos=functools.partial(
            scenarios.flaky_tcp_window, seed=seed + 11, start=FAULT_START_S,
            duration=FAULT_DURATION_S, drop_probability=DROP_PROBABILITY))
    chaos_slo = SLO(name="chaos", p50_latency_us=10_000.0,
                    p99_latency_us=50_000.0, min_goodput_fraction=0.7,
                    max_drop_fraction=0.1, max_retry_fraction=0.5,
                    window_p99_latency_us=7_500.0, warmup_windows=4,
                    enforce_windows=False)
    return Inputs(forward, chaos, chaos_slo, scratch)


def _sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def run(inputs, tracer):
    spool = os.path.join(inputs.scratch, "spool")
    shutil.rmtree(spool, ignore_errors=True)
    os.makedirs(spool)
    with obs.collecting():
        forward = tracer.call(
            "load.run_scenario", run_scenario, inputs.forward,
            stream=StreamConfig(directory=spool,
                                max_records=SHARD_MAX_RECORDS))
    fold = tracer.call("obs.fold_stream", fold_stream, spool,
                       top_k=TOP_PATHS)
    with obs.collecting() as runs:
        chaos = tracer.call("load.run_scenario", run_scenario, inputs.chaos)
    chaos_obs, chaos_nexus = runs[-1]
    verdict = tracer.call("load.evaluate", evaluate, chaos, inputs.chaos_slo)
    graph = tracer.call("obs.extract_graph", extract_graph, chaos_obs,
                        nexus=chaos_nexus)
    paths = tracer.call("obs.extract_critical_paths", extract_critical_paths,
                        chaos_obs, top_k=TOP_PATHS)
    exports = {
        "timeline.json": ("obs.write_timeline", write_timeline,
                          chaos.timeline),
        "forward-graph.json": ("obs.write_graph", write_graph, fold.graph),
        "forward-critpath.json": ("obs.write_critpaths", write_critpaths,
                                  fold.paths),
        "chaos-graph.json": ("obs.write_graph", write_graph, graph),
        "chaos-critpath.json": ("obs.write_critpaths", write_critpaths,
                                paths),
    }
    for filename, (name, writer, value) in exports.items():
        tracer.call(name, writer, os.path.join(inputs.scratch, filename),
                    value)

    def finish():
        assert chaos.failovers > 0, (
            "the flaky TCP window should force method failovers")
        assert any(path.wire_hops >= 2 for path in fold.paths), (
            "forwarding critical paths should contain a multi-hop chain")
        stream = forward.stream
        return Finished(
            {"forward": load_result_summary(forward),
             "chaos": load_result_summary(chaos),
             "verdict": verdict.as_dict(),
             "exports": {filename: _sha256(os.path.join(inputs.scratch,
                                                        filename))
                         for filename in exports}},
            layer={
                "load.offered": forward.offered + chaos.offered,
                "load.delivered": forward.delivered + chaos.delivered,
                "obs.spool_bytes": stream["bytes_written"],
                "obs.shards": stream["shards"],
                "obs.emit_s": tracer.seconds("load.run_scenario"),
                "obs.fold_s": tracer.seconds("obs.fold_stream"),
                "obs.extract_s": tracer.seconds(
                    "obs.extract_graph", "obs.extract_critical_paths"),
                "obs.export_s": tracer.seconds(
                    "obs.write_timeline", "obs.write_graph",
                    "obs.write_critpaths"),
            })

    return finish
