"""Tests for the one-stop enquiry aggregate, report(nexus)."""

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

    def test_poll_report_counts_the_receivers_work(self, bed):
        report = enquiry.report(bed.nexus)
        receiver = report.polling[max(report.polling)]
        assert receiver.messages == {"tcp": 1}
        assert receiver.cycles == receiver.fires["tcp"] > 1
        assert receiver.hit_rates["tcp"] == 1 / receiver.fires["tcp"]
        assert receiver.poll_time["tcp"] > receiver.poll_time["mpl"] > 0.0
        assert receiver.idle_fast_forwards == 1
        assert receiver.skip == {"local": 1, "mpl": 1, "tcp": 1}

    def test_transport_stats_count_bytes_and_drops(self, bed):
        tcp = enquiry.report(bed.nexus).transports["tcp"]
        assert tcp.messages_sent == 1
        assert tcp.bytes_sent > 512  # the payload plus its header
        assert (tcp.messages_dropped, tcp.bytes_dropped) == (0, 0)

    def test_untraced_runtime_has_no_traced_sections(self, bed):
        report = enquiry.report(bed.nexus)
        assert report.obs_overhead is None
        assert report.timeline is None
        assert report.latency == {} and report.phases == {}

    def test_obs_overhead_counts_what_observing_recorded(self, traced_bed):
        overhead = enquiry.report(traced_bed.nexus).obs_overhead
        assert overhead["rsrs_started"] == overhead["rsrs_finished"] == 1
        assert overhead["spans_recorded"] == overhead["peak_spans"] \
            == len(traced_bed.nexus.obs.spans)
        assert overhead["spans_dropped"] == 0
        assert overhead["streaming"] is False

    def test_latency_stats_summarise_the_one_rsr(self, traced_bed):
        tcp = enquiry.report(traced_bed.nexus).latency["tcp"]
        assert tcp.count == 1
        assert tcp.mean_us == tcp.max_us > 0.0
        assert tcp.max_us <= tcp.p95_us  # a bucket upper bound

    def test_timeline_section_when_one_is_attached(self):
        with _obs.collecting():
            bed = make_sp2(nodes_a=1, nodes_b=1)
            bed.nexus.obs.enable_timeline(0.001)
            run_workload(bed)
        timeline = enquiry.report(bed.nexus).timeline
        assert timeline["interval_s"] == 0.001
        windows = timeline["windows"]
        width = windows["hi"] - windows["lo"] + 1
        assert len(timeline["issued"]) == len(timeline["delivered"]) == width
        assert sum(timeline["issued"]) == sum(timeline["delivered"]) == 1
        measured = [v for v in timeline["p99_latency_us"] if v is not None]
        assert len(measured) == 1  # only the delivery window has samples
