"""End-to-end delivery tests per transport family: timing, ordering,
the receiver-drain model, loss, and the forwarding 'via' parameter."""

import pytest

from repro.core.buffers import Buffer
from repro.testbeds import make_sp2
from repro.util.units import MB, microseconds


def build_pair(methods, nodes_a=2, nodes_b=0, cross=False, **bed_kwargs):
    bed = make_sp2(nodes_a=nodes_a, nodes_b=nodes_b,
                   transports=tuple(dict.fromkeys(("local",) + tuple(methods))),
                   **bed_kwargs)
    nexus = bed.nexus
    host_b = bed.hosts_b[0] if cross else bed.hosts_a[1]
    a = nexus.context(bed.hosts_a[0], "A", methods=("local",) + tuple(methods))
    b = nexus.context(host_b, "B", methods=("local",) + tuple(methods))
    return bed, a, b


def send_and_time(bed, a, b, nbytes, count=1):
    """RSR `count` messages A->B; return (arrival times, payload order)."""
    nexus = bed.nexus
    log = []
    b.register_handler(
        "sink", lambda ctx, ep, buf: log.append((buf.get_int(), nexus.now)))
    sp = a.startpoint_to(b.new_endpoint())

    def sender():
        for index in range(count):
            yield from sp.rsr("sink",
                              Buffer().put_int(index).put_padding(nbytes))

    def receiver():
        yield from b.wait(lambda: len(log) >= count)

    done = nexus.spawn(receiver())
    nexus.spawn(sender())
    nexus.run(until=done)
    return log, sp


class TestMplDelivery:
    def test_small_message_latency_scale(self):
        bed, a, b = build_pair(("mpl",))
        log, sp = send_and_time(bed, a, b, 0)
        assert sp.current_methods() == ["mpl"]
        # one-way should be on the order of 100 microseconds
        assert 20e-6 < log[0][1] < 500e-6

    def test_large_message_bandwidth_bound(self):
        bed, a, b = build_pair(("mpl",))
        log, _sp = send_and_time(bed, a, b, 36 * MB)
        # 36 MB at 36 MB/s -> about a second
        assert 0.9 < log[0][1] < 1.3

    def test_fifo_ordering(self):
        bed, a, b = build_pair(("mpl",))
        log, _sp = send_and_time(bed, a, b, 1000, count=10)
        assert [entry[0] for entry in log] == list(range(10))

    def test_drain_stalled_by_foreign_polls(self):
        """The Figure 4 interference mechanism: with TCP polled every
        cycle, a large MPL transfer takes measurably longer."""
        bed1, a1, b1 = build_pair(("mpl",))
        clean, _ = send_and_time(bed1, a1, b1, 8 * MB)

        bed2, a2, b2 = build_pair(("mpl", "tcp"))
        noisy, _ = send_and_time(bed2, a2, b2, 8 * MB)
        assert noisy[0][1] > clean[0][1] * 1.05


class TestTcpDelivery:
    def test_cross_partition_uses_tcp(self):
        bed, a, b = build_pair(("mpl", "tcp"), nodes_a=1, nodes_b=1,
                               cross=True)
        log, sp = send_and_time(bed, a, b, 0)
        assert sp.current_methods() == ["tcp"]
        # ~2 ms wire latency + 5 ms connection setup + overheads
        assert 2e-3 < log[0][1] < 20e-3

    def test_connect_cost_paid_once(self):
        bed, a, b = build_pair(("tcp",), nodes_a=1, nodes_b=1, cross=True)
        log, _sp = send_and_time(bed, a, b, 0, count=3)
        first_gap = log[0][1]
        later_gap = log[2][1] - log[1][1]
        assert later_gap < first_gap  # no per-message reconnect

    def test_kernel_buffered_until_poll(self):
        """A TCP message arriving while the app computes is only seen at
        the next poll — the arrival lands in the inbox meanwhile."""
        bed, a, b = build_pair(("tcp",), nodes_a=1, nodes_b=1, cross=True)
        nexus = bed.nexus
        log = []
        b.register_handler("sink", lambda ctx, ep, buf: log.append(nexus.now))
        sp = a.startpoint_to(b.new_endpoint())

        def sender():
            yield from sp.rsr("sink", Buffer())

        def busy_receiver():
            yield from b.charge(0.1)  # no polls for 100 ms
            assert len(b.inbox("tcp")) == 1  # arrived, undetected
            yield from b.poll()
            assert len(log) == 1

        done = nexus.spawn(busy_receiver())
        nexus.spawn(sender())
        nexus.run(until=done)
        assert log[0] == pytest.approx(0.1, abs=1e-3)


class TestUdpDelivery:
    def test_losses_occur_and_are_counted(self):
        bed, a, b = build_pair(("udp",), seed=3)
        nexus = bed.nexus
        log = []
        b.register_handler("sink", lambda ctx, ep, buf: log.append(1))
        sp = a.startpoint_to(b.new_endpoint())

        def sender():
            for _ in range(300):
                yield from sp.rsr("sink", Buffer())

        send_proc = nexus.spawn(sender())
        nexus.run(until=send_proc)
        nexus.run(until=nexus.now + 1.0)

        def drain():
            yield from b.poll()

        drained = nexus.spawn(drain())
        nexus.run(until=drained)
        udp = nexus.transports.get("udp")
        assert udp.messages_dropped > 0
        assert len(log) == 300 - udp.messages_dropped

    def test_loss_is_deterministic_per_seed(self):
        def run(seed):
            bed, a, b = build_pair(("udp",), seed=seed)
            nexus = bed.nexus
            b.register_handler("sink", lambda ctx, ep, buf: None)
            sp = a.startpoint_to(b.new_endpoint())

            def sender():
                for _ in range(200):
                    yield from sp.rsr("sink", Buffer())

            done = nexus.spawn(sender())
            nexus.run(until=done)
            return nexus.transports.get("udp").messages_dropped

        assert run(11) == run(11)
        # different seeds *may* coincide, but these two do not:
        assert run(11) != run(12)


class TestViaRouting:
    def test_via_parameter_routes_through_intermediate(self):
        bed, a, b = build_pair(("mpl", "tcp"), nodes_a=3)
        nexus = bed.nexus
        relay = nexus.context(bed.hosts_a[2], "relay",
                              methods=("local", "mpl", "tcp"))
        log = []
        b.register_handler("sink", lambda ctx, ep, buf: log.append(1))

        # Hand-build a startpoint whose tcp descriptor routes via relay,
        # and require tcp so selection can't take mpl.
        from repro.core.selection import RequireMethod
        endpoint = b.new_endpoint()
        table = b.export_table()
        table = table.replace("tcp",
                              table.entry("tcp").with_param("via", relay.id))
        sp = a.new_startpoint(policy=RequireMethod("tcp"))
        sp.bind_address(b.id, endpoint.id, table)

        # b must NOT see raw tcp traffic; the relay forwards over mpl.
        from repro.core.forwarding import ForwardingService
        service = ForwardingService(nexus)
        service.forwarder = relay
        relay.forwarder = service

        def sender():
            yield from sp.rsr("sink", Buffer())

        def relay_poller():
            yield from relay.wait(lambda: len(log) >= 1)

        def receiver():
            yield from b.wait(lambda: len(log) >= 1)

        done = nexus.spawn(receiver())
        nexus.spawn(relay_poller())
        nexus.spawn(sender())
        nexus.run(until=done)
        assert service.messages_forwarded == 1
        assert len(b.inbox("tcp")) == 0
