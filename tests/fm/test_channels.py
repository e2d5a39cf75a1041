"""Tests for the Fortran M channel layer."""

import numpy as np
import pytest

from repro.fm import ChannelClosed, FmError, OutPort, channel
from repro.testbeds import make_sp2


@pytest.fixture
def bed():
    return make_sp2(nodes_a=2, nodes_b=1)


def contexts(bed, n=3):
    hosts = (bed.hosts_a + bed.hosts_b)[:n]
    return [bed.nexus.context(h, f"fm{i}") for i, h in enumerate(hosts)]


def run(bed, *procs):
    handles = [bed.nexus.spawn(p) for p in procs]
    bed.nexus.run(until=bed.nexus.sim.all_of(handles))
    return [h.value for h in handles]


class TestBasics:
    def test_send_receive_fifo(self, bed):
        reader_ctx, writer_ctx = contexts(bed, 2)
        out_local, inport = channel(reader_ctx)

        wire = out_local.to_wire()

        def writer():
            out = yield from OutPort.from_wire(wire, writer_ctx,
                                               announce=False)
            for value in (1, "two", 3.0, b"four"):
                yield from out.send(value)
            yield from out.close()

        def reader():
            values = yield from inport.receive_all()
            return values

        # replace the local original with the remote writer: don't count
        # the original anymore
        out_local.closed = True
        results = run(bed, writer(), reader())
        assert results[1] == [1, "two", 3.0, b"four"]

    def test_receive_blocks_until_data(self, bed):
        reader_ctx, writer_ctx = contexts(bed, 2)
        out, inport = channel(reader_ctx)
        remote_wire = out.to_wire()

        def writer():
            port = yield from OutPort.from_wire(remote_wire, writer_ctx,
                                                announce=False)
            yield from writer_ctx.charge(0.01)
            yield from port.send("late")

        def reader():
            value = yield from inport.receive()
            return value, bed.nexus.now

        out.closed = True
        results = run(bed, writer(), reader())
        value, at = results[1]
        assert value == "late" and at >= 0.01

    def test_numpy_payloads(self, bed):
        reader_ctx, writer_ctx = contexts(bed, 2)
        out, inport = channel(reader_ctx)

        wire = out.to_wire()

        def writer():
            port = yield from OutPort.from_wire(wire, writer_ctx,
                                                announce=False)
            yield from port.send(np.arange(5))
            yield from port.close()

        def reader():
            values = yield from inport.receive_all()
            return values

        out.closed = True
        results = run(bed, writer(), reader())
        assert np.array_equal(results[1][0], np.arange(5))

    def test_end_of_channel(self, bed):
        reader_ctx, = contexts(bed, 1)
        out, inport = channel(reader_ctx)

        def body():
            yield from out.send(1)
            yield from out.close()
            first = yield from inport.receive()
            try:
                yield from inport.receive()
            except ChannelClosed:
                return first, "eoc"

        assert run(bed, body())[0] == (1, "eoc")

    def test_closed_outport_rejects_send(self, bed):
        reader_ctx, = contexts(bed, 1)
        out, _inport = channel(reader_ctx)

        def body():
            yield from out.close()
            yield from out.close()  # idempotent
            try:
                yield from out.send(1)
            except FmError:
                return "rejected"

        assert run(bed, body())[0] == "rejected"


class TestMergers:
    def test_forked_writers_merge(self, bed):
        reader_ctx, w1_ctx, w2_ctx = contexts(bed, 3)
        out, inport = channel(reader_ctx)

        state = {}

        def setup():
            state["w1"] = yield from OutPort.from_wire(out.to_wire(), w1_ctx)
            state["w2"] = yield from OutPort.from_wire(out.to_wire(), w2_ctx)
            yield from out.close()  # the original writer retires

        def writer(key, values):
            yield bed.nexus.sim.timeout(0.02)
            port = state[key]
            for value in values:
                yield from port.send(value)
            yield from port.close()

        def reader():
            values = yield from inport.receive_all()
            return values

        results = run(bed, setup(), writer("w1", ["a1", "a2"]),
                      writer("w2", ["b1"]), reader())
        assert sorted(results[3]) == ["a1", "a2", "b1"]
        # per-writer order preserved even though merge order is free
        received = results[3]
        assert received.index("a1") < received.index("a2")

    def test_writer_methods_differ_by_location(self, bed):
        """The same channel is fed over MPL from one partition and TCP
        from the other — multimethod merging at one endpoint."""
        reader_ctx, near_ctx, far_ctx = contexts(bed, 3)
        out, inport = channel(reader_ctx)
        state = {}

        def setup():
            state["near"] = yield from OutPort.from_wire(out.to_wire(),
                                                         near_ctx)
            state["far"] = yield from OutPort.from_wire(out.to_wire(),
                                                        far_ctx)
            yield from out.close()

        def near_writer():
            yield bed.nexus.sim.timeout(0.02)
            yield from state["near"].send("near")
            yield from state["near"].close()

        def far_writer():
            yield bed.nexus.sim.timeout(0.02)
            yield from state["far"].send("far")
            yield from state["far"].close()

        def reader():
            values = yield from inport.receive_all()
            return values, state["near"].method, state["far"].method

        results = run(bed, setup(), near_writer(), far_writer(), reader())
        values, near_method, far_method = results[3]
        assert sorted(values) == ["far", "near"]
        assert near_method == "mpl" and far_method == "tcp"


class TestPortMobility:
    def test_port_travels_through_channel(self, bed):
        """Send an outport down another channel; the recipient writes
        through it (FM's defining trick)."""
        reader_ctx, relay_ctx = contexts(bed, 2)
        result_out, result_in = channel(reader_ctx)    # results channel
        carrier_out, carrier_in = channel(relay_ctx)   # port-carrying one

        def origin():
            # hand writing rights on the results channel to the relay
            yield from carrier_out.send(result_out)
            yield from carrier_out.close()
            yield from result_out.close()

        def relay():
            port = yield from carrier_in.receive()
            assert isinstance(port, OutPort)
            yield from port.send("from relay")
            yield from port.close()

        def reader():
            values = yield from result_in.receive_all()
            return values

        results = run(bed, origin(), relay(), reader())
        assert results[2] == ["from relay"]

    def test_pipeline_of_three_stages(self, bed):
        """source -> square -> sink over two channels across partitions."""
        sink_ctx, stage_ctx, source_ctx = contexts(bed, 3)
        to_sink_out, sink_in = channel(sink_ctx)
        to_stage_out, stage_in = channel(stage_ctx)
        state = {}

        def setup():
            state["src_port"] = yield from OutPort.from_wire(
                to_stage_out.to_wire(), source_ctx)
            # FM idiom: retire the old writer only once the new writer's
            # OPEN has reached the reader (the announce travels over TCP
            # while a local close would arrive instantly and race it).
            while stage_in.writers_opened < 2:
                yield bed.nexus.sim.timeout(0.001)
            yield from to_stage_out.close()

        def source():
            yield bed.nexus.sim.timeout(0.02)
            for value in range(5):
                yield from state["src_port"].send(value)
            yield from state["src_port"].close()

        def stage():
            # forward squared values downstream
            while True:
                try:
                    value = yield from stage_in.receive()
                except ChannelClosed:
                    break
                yield from to_sink_out.send(value * value)
            yield from to_sink_out.close()

        def sink():
            values = yield from sink_in.receive_all()
            return values

        results = run(bed, setup(), source(), stage(), sink())
        assert results[3] == [0, 1, 4, 9, 16]
