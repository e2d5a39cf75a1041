"""Tests for hosts, machines, partitions, and the WAN graph."""

import pytest

from repro.simnet import LinkProfile, Network, Simulator
from repro.simnet.errors import SimnetError
from repro.util.units import mbps, milliseconds

FAST = LinkProfile("fast", latency=milliseconds(1.0), bandwidth=mbps(20.0))
SLOW = LinkProfile("slow", latency=milliseconds(30.0), bandwidth=mbps(2.0))


@pytest.fixture
def net(sim):
    return Network(sim)


class TestPartition:
    def test_membership_and_sessions(self, sim, net):
        machine = net.new_machine("sp2")
        hosts = machine.new_hosts(4)
        pa = machine.new_partition("A", hosts[:2])
        pb = machine.new_partition("B", hosts[2:])
        assert hosts[0] in pa and hosts[0] not in pb
        assert pa.session != pb.session
        assert hosts[0].same_partition(hosts[1])
        assert not hosts[0].same_partition(hosts[2])

    def test_host_cannot_join_two_partitions(self, sim, net):
        machine = net.new_machine("m")
        host = machine.new_host()
        machine.new_partition("A", [host])
        with pytest.raises(SimnetError):
            machine.new_partition("B", [host])

    def test_foreign_host_rejected(self, sim, net):
        m1 = net.new_machine("m1")
        m2 = net.new_machine("m2")
        alien = m2.new_host()
        with pytest.raises(SimnetError):
            m1.new_partition("A", [alien])


class TestNetwork:
    def test_same_machine_always_connected(self, sim, net):
        machine = net.new_machine("m")
        a, b = machine.new_hosts(2)
        assert net.ip_connected(a, b)

    def test_unconnected_machines(self, sim, net):
        a = net.new_machine("a").new_host()
        b = net.new_machine("b").new_host()
        assert not net.ip_connected(a, b)
        assert net.effective_profile("tcp", a, b) is None

    def test_direct_wan_route(self, sim, net):
        m1, m2 = net.new_machine("m1"), net.new_machine("m2")
        net.connect(m1, m2, FAST)
        route = net.wan_route(m1, m2)
        assert route is not None and len(route) == 1

    def test_multihop_picks_lowest_latency(self, sim, net):
        m1, m2, m3 = (net.new_machine(n) for n in ("m1", "m2", "m3"))
        net.connect(m1, m3, SLOW)          # direct but slow
        net.connect(m1, m2, FAST)          # two fast hops
        net.connect(m2, m3, FAST)
        route = net.wan_route(m1, m3)
        assert [link.profile.name for link in route] == ["fast", "fast"]

    def test_path_profile_collapses(self, sim, net):
        m1, m2, m3 = (net.new_machine(n) for n in ("m1", "m2", "m3"))
        net.connect(m1, m2, FAST)
        net.connect(m2, m3, SLOW)
        a, c = m1.new_host(), m3.new_host()
        profile = net.effective_profile("tcp", a, c)
        assert profile.latency == pytest.approx(FAST.latency + SLOW.latency)
        assert profile.bandwidth == SLOW.bandwidth  # bottleneck

    def test_switch_profile_for_same_machine(self, sim):
        net = Network(sim)
        machine = net.new_machine("m", {"tcp": SLOW})
        a, b = machine.new_hosts(2)
        assert net.effective_profile("tcp", a, b) is SLOW
        assert net.effective_profile("udp", a, b) is None

    def test_transport_tagged_links(self, sim, net):
        m1, m2 = net.new_machine("m1"), net.new_machine("m2")
        net.connect(m1, m2, FAST, transports=("aal5",))
        net.connect(m1, m2, SLOW, transports=("tcp",))
        a, b = m1.new_host(), m2.new_host()
        assert net.effective_profile("aal5", a, b).name == "fast"
        assert net.effective_profile("tcp", a, b).name == "slow"
        assert net.wan_route(m1, m2, "udp") is None

    def test_degrade_bumps_epoch_and_changes_profile(self, sim, net):
        m1, m2 = net.new_machine("m1"), net.new_machine("m2")
        net.connect(m1, m2, FAST)
        a, b = m1.new_host(), m2.new_host()
        before = net.effective_profile("tcp", a, b).latency
        epoch = net.epoch
        net.degrade(m1, m2, latency_factor=10.0)
        assert net.epoch == epoch + 1
        assert net.effective_profile("tcp", a, b).latency == pytest.approx(
            before * 10.0)

    def test_degrade_missing_link_rejected(self, sim, net):
        m1, m2 = net.new_machine("m1"), net.new_machine("m2")
        with pytest.raises(SimnetError):
            net.degrade(m1, m2, latency_factor=2.0)

    def test_degrade_transport_filter(self, sim, net):
        m1, m2 = net.new_machine("m1"), net.new_machine("m2")
        net.connect(m1, m2, FAST, transports=("aal5",))
        net.connect(m1, m2, SLOW, transports=("tcp",))
        a, b = m1.new_host(), m2.new_host()
        net.degrade(m1, m2, latency_factor=100.0, transport="aal5")
        assert net.effective_profile("tcp", a, b).latency == pytest.approx(
            SLOW.latency)
        assert net.effective_profile("aal5", a, b).latency == pytest.approx(
            FAST.latency * 100.0)

    def test_self_connect_rejected(self, sim, net):
        machine = net.new_machine("m")
        with pytest.raises(SimnetError):
            net.connect(machine, machine, FAST)

    def test_foreign_machine_rejected(self, sim, net):
        other_net = Network(Simulator())
        foreign = other_net.new_machine("x")
        local = net.new_machine("m")
        with pytest.raises(SimnetError):
            net.connect(local, foreign, FAST)
