"""Tests for the one-stop enquiry aggregate: report(nexus) and its
uniform as_dict()."""

import pytest

from repro import Buffer, enquiry, make_sp2, obs as _obs


def run_workload(bed):
    nexus = bed.nexus
    a = nexus.context(bed.hosts_a[0])
    b = nexus.context(bed.hosts_b[0])
    log = []
    b.register_handler("blob",
                       lambda c, e, buf: log.append(buf.get_padding()))
    sp = a.startpoint_to(b.new_endpoint())

    def sender():
        yield from sp.rsr("blob", Buffer().put_padding(512))

    nexus.run_until(sender(), b.wait(lambda: bool(log)))
    return a, b


@pytest.fixture
def bed(sp2):
    run_workload(sp2)
    return sp2


@pytest.fixture
def traced_bed():
    with _obs.collecting():
        bed = make_sp2(nodes_a=1, nodes_b=1)
        run_workload(bed)
    return bed


class TestReport:
    def test_aggregates_every_section(self, bed):
        report = enquiry.report(bed.nexus)
        assert report.now == bed.sim.now
        assert report.transports["tcp"].messages_sent >= 1
        assert set(report.polling) == {c.id
                                       for c in bed.nexus.contexts.values()}
        assert report.health.retries == 0
        assert report.health.down == ()

    def test_traced_sections_filled_when_observing(self, traced_bed):
        report = enquiry.report(traced_bed.nexus)
        assert report.phases, "phase stats need an observing runtime"
        assert "tcp" in report.latency

    def test_as_dict_is_uniform_and_json_friendly(self, traced_bed):
        import json

        report = enquiry.report(traced_bed.nexus)
        as_dict = report.as_dict()
        assert set(as_dict) == {"now", "transports", "polling", "phases",
                                "latency", "poll_batches", "health",
                                "obs_overhead"}
        for section in ("transports", "polling", "phases", "latency",
                        "poll_batches"):
            for stats in as_dict[section].values():
                assert isinstance(stats, dict)
        json.dumps(as_dict)  # tuple keys flattened, everything plain
