"""Golden pins for every product read from an in-memory span log.

Three traced runs — a finished forwarding scenario, a run stopped
mid-flight (open spans present) and a log capped at a small
``max_spans`` — each pin the sha256 of their merged Chrome trace, graph
and critical-path documents, the collapsed stacks and hot-path table of
their :class:`~repro.obs.perf.PerfProfile` and ``obs.overhead()`` in
``tests/golden/products_<name>.json``.  A streamed run pins
``obs.overhead()`` and the spool summary.  The files were captured once
and are compared byte for byte; only the spool's temporary directory is
masked.
"""

import dataclasses
import hashlib
import os

import pytest

from repro import obs as _obs
from repro.bench.analysis import forwarding_scenario
from repro.core.buffers import Buffer
from repro.core.runtime import Nexus
from repro.load import run_scenario
from repro.obs.critpath import critpath_document, extract_critical_paths
from repro.obs.export import merged_chrome_trace
from repro.obs.graph import extract_graph, graph_document
from repro.obs.perf import PerfProfile
from repro.obs.stream import StreamConfig
from repro.simnet import Network, Simulator
from repro.transports.costmodels import SP2_SWITCH_TCP
from repro.util.document import dumps
from repro.util.report import hot_path_report

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

#: Span-log capacity of the ``capped`` fixture: well short of its run.
CAP = 40


def _sha(document: object) -> str:
    return hashlib.sha256(dumps(document).encode()).hexdigest()


def _traffic(nexus: Nexus, hosts, *, until: float | None = None) -> None:
    """Four RSRs over MPL and four over TCP, from one sender; run to
    ``until`` or until every one is handled."""
    src = nexus.context(hosts[0], "src")
    near = nexus.context(hosts[1], "near")
    far = nexus.context(hosts[2], "far")
    for ctx in (near, far):
        ctx.register_handler("h", lambda c, e, buf: None)
    sp_near = src.startpoint_to(near.new_endpoint())
    sp_far = src.startpoint_to(far.new_endpoint())

    def sender():
        for size in (64, 512, 2048, 8192):
            yield from sp_near.rsr("h", Buffer().put_padding(size))
            yield from sp_far.rsr("h", Buffer().put_padding(size))

    def waiter(ctx):
        yield from ctx.wait(lambda: ctx.rsrs_dispatched == 4)

    done = nexus.sim.all_of([nexus.spawn(waiter(near)),
                             nexus.spawn(waiter(far))])
    nexus.spawn(sender())
    nexus.run(until=done if until is None else until)


def _nexus(**kwargs) -> tuple[Nexus, list]:
    """A traced runtime on one SP2 (two hosts in partition A, one in B)."""
    sim = Simulator()
    network = Network(sim)
    machine = network.new_machine("sp2", {"tcp": SP2_SWITCH_TCP})
    hosts_a = machine.new_hosts(2)
    hosts_b = machine.new_hosts(1)
    machine.new_partition("A", hosts_a)
    machine.new_partition("B", hosts_b)
    return Nexus(sim, network, observe=True, **kwargs), hosts_a + hosts_b


def _finished():
    with _obs.collecting() as runs:
        run_scenario(dataclasses.replace(forwarding_scenario(),
                                         duration=0.05))
    return runs[-1]


def _midflight():
    nexus, hosts = _nexus()
    _traffic(nexus, hosts, until=0.007)
    return nexus.obs, nexus


def _capped():
    nexus, hosts = _nexus(max_spans=CAP)
    _traffic(nexus, hosts)
    return nexus.obs, nexus


FIXTURES = {"finished": _finished, "midflight": _midflight,
            "capped": _capped}


def products(obs, nexus) -> dict[str, object]:
    """Everything the in-memory span log feeds, in a comparable form."""
    partial = bool(obs.dropped_spans)
    profile = PerfProfile.from_runs([(obs, None)])
    return {
        "chrome_trace_sha256": _sha(merged_chrome_trace([(obs, nexus)])),
        "graph_sha256": _sha(graph_document(extract_graph(
            obs, nexus=nexus, allow_partial=partial))),
        "critpath_sha256": _sha(critpath_document(extract_critical_paths(
            obs, allow_partial=partial))),
        "collapsed_stacks": profile.collapsed_stacks(),
        "hot_path_report": hot_path_report(profile).splitlines(),
        "overhead": obs.overhead(),
    }


def _golden(name: str) -> str:
    with open(os.path.join(GOLDEN, f"products_{name}.json")) as handle:
        return handle.read()


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_products_match_their_golden_file(name, fresh_context_ids):
    assert dumps(products(*FIXTURES[name]()), indent=1) == _golden(name)


def test_fixtures_cover_open_and_capped_logs(fresh_context_ids):
    obs, _nexus = _midflight()
    assert any(span.end is None for span in obs.spans)
    obs, _nexus = _capped()
    assert len(obs.spans) == CAP and obs.dropped_spans > 0


def test_streamed_overhead_and_summary_match_their_golden_file(
        fresh_context_ids, tmp_path):
    with _obs.collecting() as runs:
        result = run_scenario(
            dataclasses.replace(forwarding_scenario(), duration=0.05),
            stream=StreamConfig(directory=str(tmp_path), max_records=400))
    summary = dict(result.stream or {})
    assert summary.pop("directory") == str(tmp_path)
    document = {"overhead": runs[-1][0].overhead(), "summary": summary}
    assert dumps(document, indent=1) == _golden("streamed")
