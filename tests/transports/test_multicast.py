"""Tests for the multicast communication module."""

import pytest

from repro.core.buffers import Buffer
from repro.testbeds import make_sp2
from repro.transports.errors import DeliveryError
from repro.transports.multicast import MulticastTransport

METHODS = ("local", "mpl", "tcp", "mcast")


@pytest.fixture
def group_bed():
    bed = make_sp2(nodes_a=4, nodes_b=0, transports=METHODS)
    nexus = bed.nexus
    contexts = [nexus.context(h, f"m{i}", methods=METHODS)
                for i, h in enumerate(bed.hosts_a)]
    mcast = nexus.transports.get("mcast")
    for ctx in contexts:
        mcast.join("g", ctx)
        ctx.poll_manager.add_method("mcast")
    return bed, contexts, mcast


class TestGroupManagement:
    def test_join_idempotent(self, group_bed):
        _bed, contexts, mcast = group_bed
        mcast.join("g", contexts[0])
        assert list(mcast.members("g")).count(contexts[0].id) == 1

    def test_leave(self, group_bed):
        _bed, contexts, mcast = group_bed
        mcast.leave("g", contexts[2])
        assert contexts[2].id not in mcast.members("g")
        mcast.leave("g", contexts[2])  # idempotent

    def test_group_descriptor(self, group_bed):
        _bed, contexts, mcast = group_bed
        d = mcast.descriptor_for_group(contexts[1], "g")
        assert d.param("group") == "g"
        assert d.method == "mcast"

    def test_default_export_is_none(self, group_bed):
        _bed, contexts, mcast = group_bed
        assert mcast.export_descriptor(contexts[0]) is None


class TestGroupSend:
    def _mcast_startpoint(self, contexts, mcast, group="g"):
        sender = contexts[0]
        sp = sender.new_startpoint()
        for ctx in contexts[1:]:
            endpoint = ctx.new_endpoint()
            table = ctx.export_table().add(
                mcast.descriptor_for_group(ctx, group), position=0)
            sp.bind_address(ctx.id, endpoint.id, table)
        sp.set_method("mcast")
        return sp

    def test_one_send_reaches_all_members(self, group_bed):
        bed, contexts, mcast = group_bed
        nexus = bed.nexus
        got = []
        for ctx in contexts:
            ctx.register_handler(
                "u", lambda c, e, buf: got.append((c.name, buf.get_int())))
        sp = self._mcast_startpoint(contexts, mcast)

        def sender():
            yield from sp.rsr("u", Buffer().put_int(7))

        def waiter(ctx):
            yield from ctx.wait(
                lambda: any(name == ctx.name for name, _v in got))

        waits = [nexus.spawn(waiter(ctx)) for ctx in contexts[1:]]
        nexus.spawn(sender())
        nexus.run(until=nexus.sim.all_of(waits))
        assert sorted(name for name, _ in got) == ["m1", "m2", "m3"]
        assert all(value == 7 for _n, value in got)
        # collapsed to ONE wire-level group send
        assert mcast.services.metrics.count("mcast.group_sends") == 1

    def test_mixed_methods_fall_back_to_per_link(self, group_bed):
        """If one link uses a different method, rsr loops per link."""
        bed, contexts, mcast = group_bed
        nexus = bed.nexus
        got = []
        for ctx in contexts:
            ctx.register_handler("u", lambda c, e, buf: got.append(c.name))
        sp = self._mcast_startpoint(contexts, mcast)
        sp.links[0].comm = None
        first = sp.links[0]
        first.table = first.table.remove("mcast")  # first link now prefers mpl

        def sender():
            yield from sp.rsr("u", Buffer())

        def waiter(ctx):
            yield from ctx.wait(lambda: ctx.name in got)

        waits = [nexus.spawn(waiter(ctx)) for ctx in contexts[1:]]
        nexus.spawn(sender())
        nexus.run(until=nexus.sim.all_of(waits))
        assert mcast.services.metrics.count("mcast.group_sends") == 0
        assert sorted(got) == ["m1", "m2", "m3"]

    def test_empty_group_rejected(self, group_bed):
        bed, contexts, mcast = group_bed
        nexus = bed.nexus
        message_state: dict = {}
        from repro.transports.base import WireMessage
        msg = WireMessage(handler="u", endpoint_id=0,
                          src_context=contexts[0].id, dst_context=-1,
                          payload=None, nbytes=10)

        def sender():
            yield from mcast.send_group(contexts[0], message_state, "empty",
                                        msg)

        proc = nexus.spawn(sender())
        with pytest.raises(DeliveryError):
            nexus.run(until=proc)
