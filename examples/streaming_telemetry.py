#!/usr/bin/env python
"""Streaming telemetry: spool spans to disk, then fold them back.

The in-memory span log holds every span of a run — fine for bench
artefacts, untenable at fleet scale.  This walk-through runs the chaos
load scenario twice:

1. **in memory**, extracting the communication graph and critical
   paths the usual way; then
2. **streamed**, spooling completed spans to sharded JSONL segments
   (only open spans stay resident) and rebuilding the same documents
   with a single-pass fold over the shards — or by asking the streamed
   run's own ``obs`` for them, which reads the shards back.

It then proves the three are byte-identical, shows the manifest's
explicit lossiness ledger, and demonstrates seeded sampling — a
``reservoir:4`` policy that thins healthy traffic while the always-keep
classes (retries, failovers, drops) preserve every failure witness.

Run:  python examples/streaming_telemetry.py
"""

import os
import tempfile

from repro import obs as _obs
from repro.bench.analysis import TOP_PATHS, chaos_scenario
from repro.load import run_scenario
from repro.obs.critpath import critpath_document, extract_critical_paths
from repro.obs.graph import extract_graph, graph_document
from repro.obs.stream import (
    StreamConfig,
    fold_stream,
    iter_records,
    read_manifest,
)
from repro.obs.timeline import timeline_document
from repro.util.document import dumps


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-spool-") as spool_root:
        walk_through(spool_root)


def walk_through(spool_root: str) -> None:
    scenario = chaos_scenario()
    print(f"scenario: {scenario.name}, "
          f"{scenario.duration * 1e3:.0f} ms offered window\n")

    # -- 1. the in-memory reference ---------------------------------------
    with _obs.collecting() as runs:
        mem_result = run_scenario(scenario)
    mem_obs, mem_nexus = runs[-1]
    print(f"in-memory: {len(mem_obs.spans)} spans resident "
          f"(peak {mem_obs.peak_spans})")

    # -- 2. the streamed run ----------------------------------------------
    spool_dir = os.path.join(spool_root, "full")
    config = StreamConfig(directory=spool_dir, max_records=500)
    with _obs.collecting() as runs:
        stream_result = run_scenario(scenario, stream=config)
    stream_obs, stream_nexus = runs[-1]
    summary = stream_result.stream
    assert summary is not None
    print(f"streamed:  {summary['spans_emitted']} spans spooled into "
          f"{summary['shards']} shard(s) / {summary['bytes_written']} "
          f"bytes; peak {stream_obs.peak_spans} OPEN spans resident")

    manifest = read_manifest(spool_dir)
    totals = manifest["totals"]
    print(f"ledger:    {totals['spans_opened']} opened == "
          f"{totals['spans_emitted']} emitted + "
          f"{totals['spans_sampled_out']} sampled out + "
          f"{totals['spans_dropped']} dropped\n")

    # -- 3. fold the shards; byte-identical documents ----------------------
    fold = fold_stream(spool_dir, top_k=TOP_PATHS)
    graph_mem = extract_graph(mem_obs, nexus=mem_nexus)
    paths_mem = extract_critical_paths(mem_obs, top_k=TOP_PATHS)
    assert dumps(graph_document(graph_mem)) \
        == dumps(graph_document(fold.graph))
    assert dumps(critpath_document(paths_mem)) \
        == dumps(critpath_document(fold.paths))
    assert mem_result.timeline is not None and fold.timeline is not None
    assert (dumps(timeline_document(mem_result.timeline))
            == dumps(timeline_document(fold.timeline)))
    # The products read whichever sink ran: the spool's shards here.
    assert dumps(graph_document(graph_mem)) == dumps(graph_document(
        extract_graph(stream_obs, nexus=stream_nexus)))
    assert dumps(critpath_document(paths_mem)) == dumps(critpath_document(
        extract_critical_paths(stream_obs, top_k=TOP_PATHS)))
    print("fold parity: graph, critical paths, and timeline documents "
          "are byte-identical to the in-memory extraction, and so are "
          "the streamed run's own\n")

    # -- 4. seeded sampling keeps every failure witness --------------------
    sampled_dir = os.path.join(spool_root, "sampled")
    sampled = StreamConfig(directory=sampled_dir,
                           policy="reservoir:4", seed=42)
    with _obs.collecting():
        run_scenario(scenario, stream=sampled)
    totals = read_manifest(sampled_dir)["totals"]
    kept_phases = {record["ph"] for record in iter_records(sampled_dir)
                   if record["k"] == "s"}
    print(f"sampled (reservoir:4, seed 42): {totals['spans_emitted']} "
          f"spans kept, {totals['spans_sampled_out']} sampled out")
    print(f"forced-keep classes survived: "
          f"retry={'retry' in kept_phases} "
          f"failover={'failover' in kept_phases}")
    assert "retry" in kept_phases and "failover" in kept_phases


if __name__ == "__main__":
    main()
