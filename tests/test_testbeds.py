"""Tests for the canned testbeds."""

from repro.testbeds import make_iway, make_sp2
from repro.transports.costmodels import SP2_SWITCH_TCP
from repro.util.units import mbps, milliseconds


class TestSp2:
    def test_partitions(self):
        bed = make_sp2(nodes_a=3, nodes_b=2)
        assert len(bed.hosts_a) == 3 and len(bed.hosts_b) == 2
        assert len(bed.partition_a) == 3
        assert bed.partition_a.session != bed.partition_b.session
        assert bed.hosts == bed.hosts_a + bed.hosts_b

    def test_switch_tcp_profile_matches_paper(self):
        assert SP2_SWITCH_TCP.bandwidth == mbps(8.0)
        assert SP2_SWITCH_TCP.latency == milliseconds(2.0)
        bed = make_sp2()
        assert bed.machine.switch_profile("tcp") is SP2_SWITCH_TCP

    def test_default_transports(self):
        bed = make_sp2()
        assert bed.nexus.transports.names() == ["local", "mpl", "tcp"]

    def test_custom_transports(self):
        bed = make_sp2(transports=("local", "mpl", "tcp", "udp"))
        assert "udp" in bed.nexus.transports.names()

    def test_empty_partition_b(self):
        bed = make_sp2(nodes_a=2, nodes_b=0)
        assert bed.hosts_b == []


class TestIway:
    def test_machines_and_links(self):
        bed = make_iway(sp2_nodes=3)
        assert len(bed.sp2_hosts) == 3
        net = bed.nexus.network
        assert net.ip_connected(bed.sp2_hosts[0], bed.instrument_host)
        # AAL-5 reaches the CAVE but not the instrument site.
        assert net.wan_route(bed.sp2, bed.cave, "aal5")
        assert net.wan_route(bed.sp2, bed.instrument, "aal5") is None

    def test_atm_attributes(self):
        bed = make_iway()
        assert bed.cave_host.attributes.get("atm")
        assert all(h.attributes.get("atm") for h in bed.sp2_hosts)
        assert not bed.instrument_host.attributes.get("atm")

    def test_transport_set(self):
        bed = make_iway()
        names = bed.nexus.transports.names()
        for required in ("aal5", "tcp", "udp", "mcast"):
            assert required in names
