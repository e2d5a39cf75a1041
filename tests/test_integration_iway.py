"""Integration: a full I-WAY session on one shared runtime.

The I-WAY ran ~60 heterogeneous applications over shared infrastructure.
This test runs three of ours back-to-back on one testbed instance — the
instrument stream (with an ATM outage and failover), the collaborative
whiteboard, and the satellite pipeline — verifying that runtime state
(transport registries, multicast groups, network epochs, degraded links)
composes across applications instead of leaking between them.
"""

import pytest

from repro.apps.collab import run_collab
from repro.apps.satellite import run_satellite
from repro.apps.stream import run_stream
from repro.core import enquiry
from repro.testbeds import make_iway


@pytest.fixture(scope="module")
def day():
    bed = make_iway(sp2_nodes=4)
    results = {}

    # Morning: instrument streaming; the ATM circuit fails mid-session.
    results["stream"] = run_stream(frames=12, outage_at_frame=5,
                                   testbed=bed)
    # The circuit is repaired before the afternoon sessions.
    bed.nexus.network.degrade(bed.sp2, bed.cave,
                              latency_factor=1.0 / 60.0,
                              bandwidth_factor=20.0, transport="aal5")

    # Afternoon: collaborative whiteboard over the same testbed.
    results["collab"] = run_collab(participants=4, updates=12, testbed=bed)

    # Evening: satellite pipeline (its own contexts, same hosts).
    results["satellite"] = run_satellite(frames=2, testbed=bed)
    return bed, results


class TestIwayDay:
    def test_stream_failed_over_and_delivered(self, day):
        _bed, results = day
        stream = results["stream"]
        assert stream.frames_received == 12
        assert stream.switches and stream.switches[0][1] == "tcp"

    def test_collab_unaffected_by_earlier_outage(self, day):
        _bed, results = day
        collab = results["collab"]
        assert collab.delivery_ratio == 1.0
        assert collab.group_sends == 12

    def test_satellite_uses_repaired_atm(self, day):
        _bed, results = day
        satellite = results["satellite"]
        # After repair, the display RPC selects AAL-5 again.
        assert set(satellite.display_methods) == {"aal5"}
        assert len(satellite.latencies) == 2

    def test_virtual_clock_is_cumulative(self, day):
        bed, _results = day
        # All three sessions ran on one clock: it must have advanced
        # through all of them.
        assert bed.nexus.now > 1.0

    def test_network_epoch_reflects_outage_and_repair(self, day):
        bed, _results = day
        assert bed.nexus.network.epoch >= 2  # degrade + repair

    def test_enquiry_report_covers_everything(self, day):
        bed, _results = day
        report = enquiry.report(bed.nexus)
        polled = {bed.nexus.contexts[cid].name for cid in report.polling}
        for name in ("instrument-feed", "sp2-ingest", "member0", "display"):
            assert name in polled, f"{name!r} missing from report"
        for method in ("aal5", "tcp", "mcast"):
            assert report.transports[method].messages_sent > 0, method

    def test_transport_traffic_accumulated(self, day):
        bed, _results = day
        transports = bed.nexus.transports
        assert transports.get("aal5").messages_sent > 0
        assert transports.get("tcp").messages_sent > 0
        assert transports.get("mcast").messages_sent > 0
