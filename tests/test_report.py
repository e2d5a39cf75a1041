"""Tests for the runtime diagnostics report."""

import itertools
import os
import re

import pytest

from repro import obs as _obs
from repro.core import context as context_module
from repro.core.buffers import Buffer
from repro.load import FixedSize, FleetSpec, LoadScenario, OpenLoop, \
    run_scenario
from repro.obs.stream import StreamConfig
from repro.testbeds import make_sp2
from repro.util.report import runtime_report

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


@pytest.fixture
def fresh_context_ids(monkeypatch):
    """Number this test's contexts from 1, as a fresh process would, so
    the ``(id N, ...)`` lines do not depend on which tests ran first."""
    monkeypatch.setattr(context_module, "_context_ids", itertools.count(1))


def _busy(nexus, bed):
    a = nexus.context(bed.hosts_a[0], "alpha")
    b = nexus.context(bed.hosts_a[1], "beta")
    b.poll_manager.set_skip("tcp", 16)
    b.register_handler("h", lambda c, e, buf: None)
    sp = a.startpoint_to(b.new_endpoint())

    def sender():
        for _ in range(3):
            yield from sp.rsr("h", Buffer().put_padding(2048))

    def receiver():
        yield from b.wait(lambda: b.rsrs_dispatched == 3)

    done = nexus.spawn(receiver())
    nexus.spawn(sender())
    nexus.run(until=done)
    return nexus


@pytest.fixture
def busy_nexus(fresh_context_ids):
    bed = make_sp2(nodes_a=2, nodes_b=0)
    return _busy(bed.nexus, bed)


@pytest.fixture
def traced_nexus(fresh_context_ids):
    """``busy_nexus``'s traffic, traced, with a timeline attached."""
    bed = make_sp2(nodes_a=2, nodes_b=0)
    bed.nexus.obs.enabled = True
    bed.nexus.obs.enable_timeline(0.001)
    return _busy(bed.nexus, bed)


@pytest.fixture
def streamed_nexus(fresh_context_ids, tmp_path):
    """A small open-loop load run whose spans spool to disk."""
    scenario = LoadScenario(
        name="tiny", duration=0.05, seed=7,
        fleets=(FleetSpec("rpc", clients=2, arrival=OpenLoop(rate=40.0),
                          sizes=FixedSize(512), route="remote",
                          service_ops=5, service_time=100e-6),))
    with _obs.collecting() as runs:
        run_scenario(scenario, stream=StreamConfig(directory=str(tmp_path)))
    return runs[-1][1]


@pytest.mark.parametrize("name", ["busy", "traced", "streamed"])
def test_report_matches_its_golden_text(name, request):
    """The whole report, byte for byte; only the spool's wall-clock
    figure is masked."""
    text = runtime_report(request.getfixturevalue(f"{name}_nexus"))
    text = re.sub(r"[0-9.]+ ms wall in block writes",
                  "<wall> ms wall in block writes", text)
    with open(os.path.join(GOLDEN, f"report_{name}.txt")) as handle:
        assert text + "\n" == handle.read()


def test_report_sections_present(busy_nexus):
    text = runtime_report(busy_nexus)
    assert "nexus runtime report" in text
    assert "contexts:" in text
    assert "transports:" in text
    assert "runtime counters:" in text


def test_report_shows_contexts_and_skip(busy_nexus):
    text = runtime_report(busy_nexus)
    assert "alpha" in text and "beta" in text
    assert "skip_poll 16" in text
    assert "rsrs in 3" in text


def test_report_shows_traffic(busy_nexus):
    text = runtime_report(busy_nexus)
    assert "mpl" in text
    assert "3 messages" in text
    assert "nexus.rsrs_sent: 3" in text


def test_report_without_counters(busy_nexus):
    text = runtime_report(busy_nexus, include_counters=False)
    assert "runtime counters:" not in text


def test_report_on_idle_runtime():
    bed = make_sp2(nodes_a=1, nodes_b=0)
    bed.nexus.context(bed.hosts_a[0], "lonely")
    text = runtime_report(bed.nexus)
    assert "(no traffic)" in text
    assert "lonely" in text


def test_report_timeline_section_appears_when_enabled(traced_nexus):
    text = runtime_report(traced_nexus)
    assert "timeline (" in text
    assert "issued" in text and "p99 us" in text


def test_report_omits_timeline_section_without_one(busy_nexus):
    assert "timeline (" not in runtime_report(busy_nexus)


def test_critical_path_report_renders_top_paths():
    from repro.obs.critpath import extract_critical_paths
    from repro.util.report import critical_path_report
    from tests.obs.test_spans import run_pingpong

    paths = extract_critical_paths(run_pingpong().nexus.obs)
    text = critical_path_report(paths, top_n=1)
    assert "critical paths: top 1" in text
    assert "rsr" in text
    assert "phase attribution" in text
    assert "%" in text


def test_critical_path_report_on_empty_paths():
    from repro.util.report import critical_path_report

    assert "no critical paths" in critical_path_report([])
