"""Streamed-fold parity: folded documents must equal in-memory ones.

The streaming path is only trustworthy if it is invisible in the
output: for every scenario, folding the spooled shards must rebuild the
timeline / graph / dot / critical-path documents **byte-identically**
to extracting them from the in-memory span log.  This is the contract
the CI stream-smoke job enforces with ``cmp``; these tests enforce it
per scenario, closer to the code.
"""

import dataclasses
import re

import pytest

from repro import obs as _obs
from repro.bench.analysis import (
    TOP_PATHS,
    chaos_scenario,
    forwarding_scenario,
)
from repro.load import run_scenario
from repro.obs.critpath import critpath_document, extract_critical_paths
from repro.obs.graph import dot_graph, extract_graph, graph_document
from repro.obs.perf import PerfProfile
from repro.obs.spans import Observability
from repro.obs.stream import (
    SpanSpool,
    SpoolNotFinalizedError,
    StreamConfig,
    fold_stream,
)
from repro.obs.timeline import timeline_document
from repro.simnet import Simulator
from repro.util.document import dumps
from repro.util.report import hot_path_report

SCENARIOS = {
    "chaos": chaos_scenario,
    "forward": forwarding_scenario,
    # Multicast fan-out exercises fork/retire chains in the spool.
    "forward-short": lambda: dataclasses.replace(
        forwarding_scenario(), duration=0.05),
}


def run_pair(tmp_path, scenario):
    """The same scenario twice: in-memory reference, then streamed."""
    with _obs.collecting() as runs:
        mem_result = run_scenario(scenario)
    mem_obs, mem_nexus = runs[-1]
    config = StreamConfig(directory=str(tmp_path / "spool"),
                          max_records=400)
    with _obs.collecting() as runs:
        stream_result = run_scenario(scenario, stream=config)
    fold = fold_stream(config.directory, top_k=TOP_PATHS)
    return mem_result, mem_obs, mem_nexus, stream_result, fold, runs[-1]


def span_products(obs, nexus):
    """The span products of one run, read from whichever sink it used."""
    profile = PerfProfile.from_runs([(obs, None)])
    return (dumps(graph_document(extract_graph(obs, nexus=nexus))),
            dumps(critpath_document(extract_critical_paths(
                obs, top_k=TOP_PATHS))),
            profile.collapsed_stacks(), hot_path_report(profile))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_folded_documents_byte_identical(tmp_path, name):
    scenario = SCENARIOS[name]()
    mem_result, mem_obs, mem_nexus, stream_result, fold, streamed = \
        run_pair(tmp_path, scenario)

    graph_mem = extract_graph(mem_obs, nexus=mem_nexus)
    assert dumps(graph_document(graph_mem)) \
        == dumps(graph_document(fold.graph))
    assert (dot_graph(graph_mem, title=scenario.name)
            == dot_graph(fold.graph, title=scenario.name))

    paths_mem = extract_critical_paths(mem_obs, top_k=TOP_PATHS)
    assert dumps(critpath_document(paths_mem)) \
        == dumps(critpath_document(fold.paths))

    assert mem_result.timeline is not None and fold.timeline is not None
    assert (dumps(timeline_document(mem_result.timeline))
            == dumps(timeline_document(fold.timeline)))

    assert not fold.unresolved_rsrs, (
        f"every RSR should resolve at end of run: {fold.unresolved_rsrs}")
    # And the streamed run's own live surfaces agree with the reference.
    assert stream_result.delivered == mem_result.delivered
    assert stream_result.timeline is not None
    assert (dumps(timeline_document(stream_result.timeline))
            == dumps(timeline_document(mem_result.timeline)))
    # The products read the spool back: the streamed run's own obs
    # gives what the in-memory one does.
    assert span_products(*streamed) == span_products(mem_obs, mem_nexus)


def test_sampled_fold_refuses_timeline(tmp_path):
    # A sampled spool cannot replay the counters faithfully, so the
    # fold must return no timeline rather than a silently-wrong one.
    config = StreamConfig(directory=str(tmp_path / "spool"),
                          policy="reservoir:3", seed=0)
    with _obs.collecting() as runs:
        run_scenario(forwarding_scenario(), stream=config)
    fold = fold_stream(config.directory)
    assert fold.timeline is None
    assert fold.graph is not None, (
        "the partial graph is still useful (and labelled by policy)")
    obs, nexus = runs[-1]
    assert (dumps(graph_document(extract_graph(obs, nexus=nexus)))
            == dumps(graph_document(fold.graph)))


def test_unfinalized_spool_is_refused(tmp_path):
    # Before finalize the shards lack the open spans and staged RSRs:
    # reading them would return a silently short answer.
    obs = Observability(Simulator(), enabled=True)
    directory = str(tmp_path / "spool")
    SpanSpool(StreamConfig(directory=directory)).attach(obs)
    obs.close_span(obs.open_span("issue", rsr=1))
    with pytest.raises(SpoolNotFinalizedError, match=re.escape(directory)):
        extract_graph(obs)


def test_capacity_dropped_trace_refuses_extraction():
    # In-memory traces that overflowed the span cap have broken chains:
    # extraction must refuse by default and annotate when allowed.
    from repro.obs.graph import graph_document
    from repro.obs.spans import TraceIncompleteError

    with _obs.collecting() as runs:
        run_scenario(dataclasses.replace(
            forwarding_scenario(), duration=0.05))
    obs, nexus = runs[-1]
    # Simulate a span log that hit its capacity cap mid-run: whatever
    # the count, extraction must treat the chains as untrustworthy.
    obs.dropped_spans = 17
    with pytest.raises(TraceIncompleteError):
        extract_graph(obs, nexus=nexus)
    with pytest.raises(TraceIncompleteError):
        extract_critical_paths(obs)
    graph = extract_graph(obs, nexus=nexus, allow_partial=True)
    document = graph_document(graph)
    assert document["dropped_spans"] == obs.dropped_spans
