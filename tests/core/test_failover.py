"""Tests for automatic method failover: down -> next applicable method,
cool-off probes, mobile health state, and the no-methods-left error."""

import dataclasses

import pytest

from repro import Buffer, HealthConfig, RetryPolicy, enquiry, make_sp2
from repro.core.errors import SelectionError
from repro.transports.costmodels import DEFAULT_COSTS, UDP_COSTS

FAST_RECOVERY = HealthConfig(failure_threshold=2, cooloff=0.05)


def make_bed(transports=("local", "mpl", "tcp", "udp"), *,
             health=FAST_RECOVERY):
    return make_sp2(
        nodes_a=2, nodes_b=1, transports=transports,
        costs=dataclasses.replace(DEFAULT_COSTS, transports={
            **DEFAULT_COSTS.transports,
            "udp": dataclasses.replace(UDP_COSTS, drop_probability=0.0)}),
        retry_policy=RetryPolicy(max_attempts=2, base_delay=1e-4,
                                 max_delay=1e-3, jitter=0.0),
        health=health,
    )


@pytest.fixture
def bed():
    return make_bed()


def wire_up(bed):
    """One cross-partition link with a counting handler."""
    nexus = bed.nexus
    a = nexus.context(bed.hosts_a[0])
    b = nexus.context(bed.hosts_b[0])
    log = []
    b.register_handler("blob",
                       lambda c, e, buf: log.append(buf.get_padding()))
    sp = a.startpoint_to(b.new_endpoint())
    return a, b, sp, log


def deliver(nexus, receiver, sp, log, payload=64):
    def sender():
        yield from sp.rsr("blob", Buffer().put_padding(payload))

    expected = len(log) + 1
    nexus.run_until(sender(), receiver.wait(lambda: len(log) >= expected))


class TestFailover:
    def test_failover_picks_next_applicable_method(self, bed):
        a, b, sp, log = wire_up(bed)
        deliver(bed.nexus, b, sp, log)
        assert sp.current_methods() == ["tcp"]
        # MPL sits ahead of UDP in the table but does not cross the
        # partition boundary — failover must skip it, not just skip the
        # downed entry.
        assert enquiry.applicable_methods(a, sp) == [["tcp", "udp"]]

        bed.nexus.network.fail(bed.partition_a, bed.partition_b,
                               transport="tcp")
        deliver(bed.nexus, b, sp, log)
        assert sp.current_methods() == ["udp"]
        assert log == [64, 64], "the message still arrived"

        health = enquiry.health_report(bed.nexus)
        assert health.retries == 1, "max_attempts=2: one retry before down"
        assert health.failovers == 1
        assert [(m, t) for _, _, _, m, t in health.events] == [
            ("tcp", "down")]
        assert a.health.down_methods(sp.links[0].context_id) == ("tcp",)

    def test_probe_re_selects_tcp_after_restore(self, bed):
        a, b, sp, log = wire_up(bed)
        deliver(bed.nexus, b, sp, log)
        bed.nexus.network.fail(bed.partition_a, bed.partition_b,
                               transport="tcp")
        deliver(bed.nexus, b, sp, log)
        bed.nexus.network.restore(bed.partition_a, bed.partition_b,
                                  transport="tcp")

        bed.sim.run(until=bed.sim.timeout(FAST_RECOVERY.cooloff))
        deliver(bed.nexus, b, sp, log)
        assert sp.current_methods() == ["tcp"]
        health = enquiry.health_report(bed.nexus)
        assert health.probes == 1
        assert [(m, t) for _, _, _, m, t in health.events] == [
            ("tcp", "down"), ("tcp", "probe"), ("tcp", "up")]
        assert health.down == (), "nothing unhealthy at the end"

    def test_failed_probe_re_downs_and_fails_over_again(self, bed):
        # A flaky rule (vs a hard fault) keeps TCP *applicable*, so the
        # armed probe is actually attempted — and fails.
        a, b, sp, log = wire_up(bed)
        deliver(bed.nexus, b, sp, log)
        bed.nexus.network.set_flaky(bed.partition_a, bed.partition_b,
                                    transport="tcp", drop_probability=1.0)
        deliver(bed.nexus, b, sp, log)

        bed.sim.run(until=bed.sim.timeout(FAST_RECOVERY.cooloff))
        deliver(bed.nexus, b, sp, log)  # probe fails, links still flaky
        assert sp.current_methods() == ["udp"]
        assert log == [64, 64, 64]
        health = enquiry.health_report(bed.nexus)
        assert health.probes == 1
        assert health.failovers == 2
        assert [(m, t) for _, _, _, m, t in health.events] == [
            ("tcp", "down"), ("tcp", "probe"), ("tcp", "probe_failed")]

    def test_zero_healthy_methods_raises_clear_error(self):
        bed = make_bed(transports=("local", "mpl", "tcp"))
        a, b, sp, log = wire_up(bed)
        deliver(bed.nexus, b, sp, log)
        bed.nexus.network.fail(bed.partition_a, bed.partition_b,
                               transport="tcp")

        def sender():
            yield from sp.rsr("blob", Buffer().put_padding(64))

        with pytest.raises(SelectionError,
                           match="no healthy communication methods left"):
            bed.nexus.run_until(sender())


class TestMobileHealth:
    def test_wire_startpoint_carries_down_methods(self):
        bed = make_bed(health=HealthConfig(failure_threshold=2,
                                           cooloff=60.0))
        a, b, sp, log = wire_up(bed)
        deliver(bed.nexus, b, sp, log)
        bed.nexus.network.fail(bed.partition_a, bed.partition_b,
                               transport="tcp")
        deliver(bed.nexus, b, sp, log)
        wire = sp.to_wire()
        assert wire.links[0].down_methods == ("tcp",)

        third = bed.nexus.context(bed.hosts_a[1])
        imported = third.import_startpoint(wire)
        assert third.health.is_down(b.id, "tcp"), \
            "importer inherits the sender's view of method health"
        assert imported.ensure_connected(imported.links[0]).method == "udp"

    def test_healthy_wire_startpoint_carries_nothing(self, bed):
        a, b, sp, log = wire_up(bed)
        deliver(bed.nexus, b, sp, log)
        assert sp.to_wire().links[0].down_methods == ()
