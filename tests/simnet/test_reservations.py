"""Tests for QoS bandwidth reservations (Section 2's channel-based QoS)."""

import pytest

from repro.simnet import LinkProfile, Network, Simulator
from repro.simnet.errors import SimnetError
from repro.util.units import mbps, milliseconds

LINK = LinkProfile("wan", latency=milliseconds(5.0), bandwidth=mbps(10.0))


@pytest.fixture
def net():
    sim = Simulator()
    network = Network(sim)
    m1 = network.new_machine("m1")
    m2 = network.new_machine("m2")
    network.connect(m1, m2, LINK)
    m1.new_host()
    m2.new_host()
    return network, m1, m2


class TestReserve:
    def test_reserve_reduces_available(self, net):
        network, m1, m2 = net
        a, b = m1.hosts[0], m2.hosts[0]
        assert network.available_bandwidth(a, b) == mbps(10.0)
        reservation = network.reserve(m1, m2, mbps(4.0))
        assert network.available_bandwidth(a, b) == pytest.approx(mbps(6.0))
        reservation.release()
        assert network.available_bandwidth(a, b) == pytest.approx(mbps(10.0))

    def test_release_idempotent(self, net):
        network, m1, m2 = net
        reservation = network.reserve(m1, m2, mbps(2.0))
        reservation.release()
        reservation.release()
        a, b = m1.hosts[0], m2.hosts[0]
        assert network.available_bandwidth(a, b) == pytest.approx(mbps(10.0))

    def test_admission_control(self, net):
        network, m1, m2 = net
        network.reserve(m1, m2, mbps(8.0))
        with pytest.raises(SimnetError, match="admission"):
            network.reserve(m1, m2, mbps(4.0))

    def test_bad_bandwidth_rejected(self, net):
        network, m1, m2 = net
        with pytest.raises(SimnetError):
            network.reserve(m1, m2, 0.0)

    def test_unreachable_rejected(self, net):
        network, m1, _m2 = net
        island = network.new_machine("island")
        with pytest.raises(SimnetError, match="route"):
            network.reserve(m1, island, mbps(1.0))

    def test_reservation_bumps_epoch(self, net):
        network, m1, m2 = net
        epoch = network.epoch
        reservation = network.reserve(m1, m2, mbps(1.0))
        assert network.epoch == epoch + 1
        reservation.release()
        assert network.epoch == epoch + 2

    def test_same_machine_available_is_switch(self):
        sim = Simulator()
        network = Network(sim)
        machine = network.new_machine("m", {"tcp": LINK})
        a, b = machine.new_hosts(2)
        assert network.available_bandwidth(a, b, "tcp") == LINK.bandwidth
        assert network.available_bandwidth(a, b) == float("inf")


class TestReservedChannels:
    def test_reserved_channel_gets_guaranteed_rate(self):
        """A startpoint whose descriptor carries reserved_bandwidth moves
        data at the reserved rate, not the raw link rate."""
        from repro.core.buffers import Buffer
        from repro.testbeds import make_iway
        from repro.util.units import MB

        def run(reserved):
            bed = make_iway()
            nexus = bed.nexus
            a = nexus.context(bed.sp2_hosts[0], methods=("local", "tcp"))
            b = nexus.context(bed.instrument_host, methods=("local", "tcp"))
            log = []
            b.register_handler("h", lambda c, e, buf: log.append(nexus.now))
            sp = a.startpoint_to(b.new_endpoint())
            if reserved is not None:
                link = sp.links[0]
                link.table = link.table.replace(
                    "tcp", link.table.entry("tcp").with_param(
                        "reserved_bandwidth", reserved))

            def sender():
                yield from sp.rsr("h", Buffer().put_padding(4 * MB))

            def receiver():
                yield from b.wait(lambda: bool(log))

            done = nexus.spawn(receiver())
            nexus.spawn(sender())
            nexus.run(until=done)
            return log[0]

        slow_path = run(None)                   # 1 MB/s site link bottleneck
        fast_channel = run(4.0 * 1024 * 1024)   # 4 MB/s reserved PVC
        assert fast_channel < slow_path / 2

    def test_qos_policy_uses_available_bandwidth(self):
        """QoSAware(use_available=True) must reject a method whose raw
        bandwidth qualifies but whose unreserved share does not."""
        from repro.core.selection import QoSAware
        from repro.testbeds import make_iway
        from repro.util.units import mbps as _mbps

        bed = make_iway()
        nexus = bed.nexus
        a = nexus.context(bed.sp2_hosts[0])
        b = nexus.context(bed.cave_host)

        policy_raw = QoSAware(min_bandwidth=_mbps(10.0), strict=True)
        policy_avail = QoSAware(min_bandwidth=_mbps(10.0), strict=True,
                                use_available=True)
        sp = a.startpoint_to(b.new_endpoint())

        # Raw: aal5's 16 MB/s path qualifies either way.
        assert policy_raw.select(a, sp.links[0].table, b.host).method == \
            "aal5"
        # Reserve most of the ATM link; available drops below 10 MB/s.
        nexus.network.reserve(bed.sp2, bed.cave, _mbps(10.0),
                              transport="aal5")
        assert policy_raw.select(a, sp.links[0].table, b.host).method == \
            "aal5"
        from repro.core.errors import SelectionError
        with pytest.raises(SelectionError):
            policy_avail.select(a, sp.links[0].table, b.host)
