"""Tests for startpoints, endpoints, binding, and RSR semantics."""

import copy

import pytest

from repro.core.buffers import Buffer
from repro.core.errors import BindError, HandlerError, NexusError
from repro.transports.base import WireMessage


@pytest.fixture
def pair(sp2):
    nexus = sp2.nexus
    a = nexus.context(sp2.hosts_a[0], "A")
    b = nexus.context(sp2.hosts_a[1], "B")
    return sp2, a, b


class TestEndpoints:
    def test_address_is_global_name(self, pair):
        _bed, _a, b = pair
        e1 = b.new_endpoint()
        e2 = b.new_endpoint()
        assert (e1.context.id, e1.id) != (e2.context.id, e2.id)
        assert e1.context is e2.context is b

    def test_bound_object(self, pair):
        _bed, _a, b = pair
        obj = {"state": 1}
        endpoint = b.new_endpoint(bound_object=obj)
        assert endpoint.bound_object is obj

    def test_endpoints_cannot_be_copied(self, pair):
        _bed, _a, b = pair
        endpoint = b.new_endpoint()
        with pytest.raises(TypeError, match="cannot be copied"):
            copy.copy(endpoint)
        with pytest.raises(TypeError):
            copy.deepcopy(endpoint)

    def test_destroy_endpoint(self, pair):
        bed, a, b = pair
        nexus = bed.nexus
        endpoint = b.new_endpoint()
        b.register_handler("h", lambda c, e, buf: None)
        sp = a.startpoint_to(endpoint)
        b.destroy_endpoint(endpoint)

        def sender():
            yield from sp.rsr("h", Buffer())

        def receiver():
            yield from b.wait(lambda: False)

        nexus.spawn(receiver())
        nexus.spawn(sender())
        with pytest.raises(HandlerError, match="unknown endpoint") as info:
            nexus.run(max_events=100_000)
        assert info.value.__suppress_context__


class TestBinding:
    def test_unbound_rsr_rejected(self, pair):
        _bed, a, _b = pair
        sp = a.new_startpoint()
        with pytest.raises(BindError):
            next(sp.rsr("h", Buffer()))

    def test_bind_chains(self, pair):
        _bed, a, b = pair
        sp = a.new_startpoint().bind(b.new_endpoint()).bind(b.new_endpoint())
        assert sp.is_multicast
        assert len(sp.links) == 2

    def test_bind_carries_descriptor_table(self, pair):
        _bed, a, b = pair
        sp = a.startpoint_to(b.new_endpoint())
        assert sp.links[0].table.methods == b.export_table().methods
        # The link shares b's table, a value: rebinding the link's edited
        # table leaves b's untouched.
        link = sp.links[0]
        assert link.table is b.export_table()
        link.table = link.table.remove("tcp")
        assert "tcp" in b.export_table() and "tcp" not in link.table


class TestRsr:
    def test_handler_receives_endpoint_and_buffer(self, pair):
        bed, a, b = pair
        nexus = bed.nexus
        seen = {}

        def handler(ctx, endpoint, buffer):
            seen["ctx"] = ctx.name
            seen["endpoint"] = endpoint.id
            seen["value"] = buffer.get_int()

        b.register_handler("h", handler)
        endpoint = b.new_endpoint()
        sp = a.startpoint_to(endpoint)

        def sender():
            yield from sp.rsr("h", Buffer().put_int(123))

        def receiver():
            yield from b.wait(lambda: "value" in seen)

        done = nexus.spawn(receiver())
        nexus.spawn(sender())
        nexus.run(until=done)
        assert seen == {"ctx": "B", "endpoint": endpoint.id, "value": 123}

    def test_rsr_is_asynchronous(self, pair):
        """The sender resumes before the handler has run."""
        bed, a, b = pair
        nexus = bed.nexus
        order = []
        b.register_handler("h", lambda c, e, buf: order.append("handled"))
        sp = a.startpoint_to(b.new_endpoint())

        def sender():
            yield from sp.rsr("h", Buffer())
            order.append("sender-resumed")

        def receiver():
            yield from b.wait(lambda: "handled" in order)

        done = nexus.spawn(receiver())
        nexus.spawn(sender())
        nexus.run(until=done)
        assert order == ["sender-resumed", "handled"]

    def test_missing_handler_raises(self, pair):
        bed, a, b = pair
        nexus = bed.nexus
        sp = a.startpoint_to(b.new_endpoint())

        def sender():
            yield from sp.rsr("nope", Buffer())

        def receiver():
            yield from b.wait(lambda: False)

        nexus.spawn(receiver())
        nexus.spawn(sender())
        with pytest.raises(HandlerError, match="no handler") as info:
            nexus.run(max_events=100_000)
        assert info.value.__suppress_context__

    def test_threaded_handler_runs_as_process(self, pair):
        """A handler returning a generator may itself block and reply."""
        bed, a, b = pair
        nexus = bed.nexus
        log = []
        a.register_handler("reply", lambda c, e, buf: log.append(buf.get_int()))
        reply_sp = b.startpoint_to(a.new_endpoint())

        def threaded(ctx, endpoint, buffer):
            value = buffer.get_int()
            yield from ctx.charge(1e-3)  # blocks inside the handler
            yield from reply_sp.rsr("reply", Buffer().put_int(value * 2))

        b.register_handler("req", threaded)
        sp = a.startpoint_to(b.new_endpoint())

        def client():
            yield from sp.rsr("req", Buffer().put_int(21))
            yield from a.wait(lambda: log == [42])

        def server():
            yield from b.wait(lambda: log == [42])

        done = nexus.spawn(client())
        nexus.spawn(server())
        nexus.run(until=done)
        assert log == [42]

    def test_multicast_rsr_reaches_all_endpoints(self, pair):
        bed, a, b = pair
        nexus = bed.nexus
        a2 = nexus.context(bed.hosts_b[0], "A2")
        got = []
        for ctx in (b, a2):
            ctx.register_handler("h",
                                 lambda c, e, buf: got.append(
                                     (c.name, buf.get_int())))
        sp = (a.new_startpoint().bind(b.new_endpoint())
              .bind(a2.new_endpoint()))

        def sender():
            yield from sp.rsr("h", Buffer().put_int(5))

        def wait_for(ctx):
            def body():
                yield from ctx.wait(
                    lambda: any(n == ctx.name for n, _ in got))
            return body()

        waits = [nexus.spawn(wait_for(b)), nexus.spawn(wait_for(a2))]
        nexus.spawn(sender())
        nexus.run(until=nexus.sim.all_of(waits))
        assert sorted(got) == [("A2", 5), ("B", 5)]
        # Methods selected per link: mpl inside the partition, tcp across.
        assert sp.current_methods() == ["mpl", "tcp"]

    def test_incoming_streams_merge_at_endpoint(self, pair):
        """Multiple startpoints bound to one endpoint: deliveries merge."""
        bed, a, b = pair
        nexus = bed.nexus
        a2 = nexus.context(bed.hosts_b[0], "A2")
        got = []
        b.register_handler("h", lambda c, e, buf: got.append(buf.get_str()))
        endpoint = b.new_endpoint()
        sp1 = a.startpoint_to(endpoint)
        sp2 = a2.startpoint_to(endpoint)

        def send(sp, tag):
            def body():
                yield from sp.rsr("h", Buffer().put_str(tag))
            return body()

        def receiver():
            yield from b.wait(lambda: len(got) == 2)

        done = nexus.spawn(receiver())
        nexus.spawn(send(sp1, "from-a"))
        nexus.spawn(send(sp2, "from-a2"))
        nexus.run(until=done)
        assert sorted(got) == ["from-a", "from-a2"]
        assert endpoint.rsrs_received == 2

    def test_rsr_stats(self, pair):
        bed, a, b = pair
        nexus = bed.nexus
        b.register_handler("h", lambda c, e, buf: None)
        sp = a.startpoint_to(b.new_endpoint())

        def sender():
            for _ in range(3):
                yield from sp.rsr("h", Buffer().put_padding(100))

        def receiver():
            yield from b.wait(lambda: b.rsrs_dispatched == 3)

        done = nexus.spawn(receiver())
        nexus.spawn(sender())
        nexus.run(until=done)
        assert sp.rsrs_sent == 3
        assert sp.bytes_sent >= 300


class TestDispatch:
    """``Context.dispatch`` on one message, driven directly: a lookup miss
    is a typed ``HandlerError`` whose ``KeyError`` is suppressed, and a
    message for another context goes to the forwarder."""

    @staticmethod
    def message(a, b, endpoint_id, handler="h", dst_context=None):
        return WireMessage(
            handler=handler, endpoint_id=endpoint_id, src_context=a.id,
            dst_context=b.id if dst_context is None else dst_context,
            payload=Buffer(), nbytes=64, method="mpl")

    def test_unknown_endpoint_is_typed(self, pair):
        bed, a, b = pair
        b.register_handler("h", lambda c, e, buf: None)
        with pytest.raises(HandlerError, match=(
                f"RSR 'h' addressed unknown endpoint 999 in context "
                f"{b.id}$")) as info:
            bed.nexus.run_until(b.dispatch(self.message(a, b, 999)))
        assert not isinstance(info.value, KeyError)
        assert info.value.__suppress_context__

    def test_unknown_handler_is_typed(self, pair):
        bed, a, b = pair
        endpoint = b.new_endpoint()
        with pytest.raises(HandlerError, match=(
                f"context {b.id} has no handler 'nope'$")) as info:
            bed.nexus.run_until(b.dispatch(
                self.message(a, b, endpoint.id, handler="nope")))
        assert not isinstance(info.value, KeyError)
        assert info.value.__suppress_context__
        assert endpoint.rsrs_received == 0

    def test_delivery_is_counted_on_the_endpoint(self, pair):
        bed, a, b = pair
        endpoint = b.new_endpoint()
        b.register_handler("h", lambda c, e, buf: None)
        bed.nexus.run_until(b.dispatch(self.message(a, b, endpoint.id)))
        assert endpoint.rsrs_received == 1
        assert b.rsrs_dispatched == 1

    def test_message_for_another_context_is_forwarded(self, pair):
        bed, a, b = pair
        forwarded = []

        class Forwarder:
            def forward(self, context, message):
                forwarded.append((context, message))
                yield 0.0

        message = self.message(a, b, 1, dst_context=a.id)
        with pytest.raises(NexusError, match="is not a forwarder"):
            bed.nexus.run_until(b.dispatch(message))
        b.forwarder = Forwarder()
        bed.nexus.run_until(b.dispatch(message))
        assert forwarded == [(b, message)] and b.rsrs_dispatched == 0
