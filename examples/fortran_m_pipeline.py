#!/usr/bin/env python
"""Fortran M-style channel programming over multimethod links.

Fortran M (the paper's reference [14]) was implemented on Nexus; its
channels map directly onto communication links: an outport is a
startpoint, an inport is an endpoint, and FM's merger is the paper's
endpoint merging.  This example builds a three-stage pipeline across
both SP2 partitions and then a many-to-one merger fed over *different
methods* (MPL from inside the partition, TCP from outside) — one reader,
one channel, two transports.

Run:  python examples/fortran_m_pipeline.py
"""

from repro import make_sp2
from repro.fm import ChannelClosed, OutPort, channel


def main() -> None:
    bed = make_sp2(nodes_a=2, nodes_b=1)
    nexus = bed.nexus
    sink_ctx = nexus.context(bed.hosts_a[0], "sink")
    stage_ctx = nexus.context(bed.hosts_a[1], "stage")
    source_ctx = nexus.context(bed.hosts_b[0], "source")

    to_sink, sink_in = channel(sink_ctx)
    to_stage, stage_in = channel(stage_ctx)
    ports = {}

    def setup():
        ports["source"] = yield from OutPort.from_wire(
            to_stage.to_wire(), source_ctx)
        while stage_in.writers_opened < 2:
            yield 0.001
        yield from to_stage.close()

    def source():
        yield 0.02
        for value in range(6):
            yield from ports["source"].send(value)
        yield from ports["source"].close()
        print(f"source: sent 0..5 over {ports['source'].method} "
              "(cross-partition)")

    def stage():
        while True:
            try:
                value = yield from stage_in.receive()
            except ChannelClosed:
                break
            yield from to_sink.send(value * value)
        yield from to_sink.close()
        print("stage: squared everything, channel closed")

    def sink():
        values = yield from sink_in.receive_all()
        print(f"sink: received {values}")

    nexus.run_until(setup(), source(), stage(), sink())

    print("\n--- merger: one inport, writers on two transports ---")
    merged_out, merged_in = channel(sink_ctx)
    state = {}

    def merger_setup():
        state["near"] = yield from OutPort.from_wire(merged_out.to_wire(),
                                                     stage_ctx)
        state["far"] = yield from OutPort.from_wire(merged_out.to_wire(),
                                                    source_ctx)
        yield from merged_out.close()

    def writer(key, values):
        yield 0.02
        for value in values:
            yield from state[key].send(value)
        yield from state[key].close()

    def reader():
        values = yield from merged_in.receive_all()
        print(f"merged stream: {values}")
        print(f"  near writer used {state['near'].method}, "
              f"far writer used {state['far'].method}")

    nexus.run_until(merger_setup(), writer("near", ["n1", "n2", "n3"]),
                    writer("far", ["f1", "f2"]), reader())


if __name__ == "__main__":
    main()
