"""Tests for the eager/rendezvous message protocol."""

import numpy as np
import pytest

from repro.mpi import MpiConfig, Padded

from .conftest import build_world, run_spmd

#: 4 KB threshold for the rendezvous tests.
RDV = MpiConfig(eager_threshold=4096)


class TestProtocolSelection:
    def test_small_messages_stay_eager(self):
        bed, world = build_world(2, 0, config=RDV)

        def body(proc):
            if proc.rank == 0:
                yield from proc.send("tiny", dest=1)
            elif proc.rank == 1:
                data, _ = yield from proc.recv(source=0)
                return data

        results = run_spmd(bed, world, body)
        assert results[1] == "tiny"
        assert world.process(0).rendezvous_sends == 0

    def test_large_messages_use_rendezvous(self):
        bed, world = build_world(2, 0, config=RDV)

        def body(proc):
            if proc.rank == 0:
                yield from proc.send(Padded("big", 100_000), dest=1)
            elif proc.rank == 1:
                data, status = yield from proc.recv(source=0)
                return data, status.nbytes

        results = run_spmd(bed, world, body)
        data, nbytes = results[1]
        assert data == "big"
        assert nbytes >= 100_000  # status reports the envelope's size
        assert world.process(0).rendezvous_sends == 1
        # nothing left parked on either side
        assert not world.process(0)._pending_sends
        assert not world.process(1)._awaiting_data

    def test_default_config_is_always_eager(self):
        bed, world = build_world(2, 0)  # no threshold

        def body(proc):
            if proc.rank == 0:
                yield from proc.send(Padded(None, 10_000_000), dest=1)
            elif proc.rank == 1:
                yield from proc.recv(source=0)

        run_spmd(bed, world, body)
        assert world.process(0).rendezvous_sends == 0


class TestMatchingSemantics:
    def test_recv_posted_first(self):
        bed, world = build_world(2, 0, config=RDV)

        def body(proc):
            if proc.rank == 1:
                request = proc.irecv(source=0, tag=9)
                data, _ = yield from request.wait()
                return data
            yield from proc.context.charge(0.001)  # recv posts first
            yield from proc.send(Padded("late-rts", 50_000), dest=1, tag=9)

        results = run_spmd(bed, world, body)
        assert results[1] == "late-rts"

    def test_unexpected_rts_then_post(self):
        bed, world = build_world(2, 0, config=RDV)

        def body(proc):
            if proc.rank == 0:
                yield from proc.send(Padded("early-rts", 50_000), dest=1)
            elif proc.rank == 1:
                yield from proc.context.charge(0.005)  # RTS sits unexpected
                data, _ = yield from proc.recv(source=0)
                return data

        results = run_spmd(bed, world, body)
        assert results[1] == "early-rts"

    def test_large_payload_arrays_intact(self):
        bed, world = build_world(2, 2, config=RDV)  # cross-partition too

        def body(proc):
            if proc.rank == 0:
                yield from proc.send(np.arange(4096, dtype=np.float64),
                                     dest=3)
            elif proc.rank == 3:
                data, _ = yield from proc.recv(source=0)
                return float(data.sum())

        results = run_spmd(bed, world, body)
        assert results[3] == float(np.arange(4096).sum())

    def test_many_interleaved_sizes_ordered_per_tag(self):
        bed, world = build_world(2, 0, config=RDV)

        def body(proc):
            if proc.rank == 0:
                for index in range(8):
                    big = index % 2 == 0
                    payload = Padded(index, 50_000) if big else index
                    yield from proc.send(payload, dest=1, tag=index)
            elif proc.rank == 1:
                out = []
                for index in range(8):
                    data, _ = yield from proc.recv(source=0, tag=index)
                    out.append(data)
                return out

        results = run_spmd(bed, world, body)
        assert results[1] == list(range(8))

    def test_rendezvous_keeps_unexpected_queue_small(self):
        """The protocol's point: unsolicited large sends park only an
        envelope at the receiver, not the payload bytes."""

        def run(config):
            bed, world = build_world(2, 0, config=config)

            def body(proc):
                if proc.rank == 0:
                    for index in range(6):
                        yield from proc.send(Padded(index, 200_000), dest=1)
                elif proc.rank == 1:
                    yield from proc.context.charge(0.01)  # all unexpected
                    total = 0
                    for _ in range(6):
                        data, status = yield from proc.recv(source=0)
                        total += status.nbytes
                    return total

            results = run_spmd(bed, world, body)
            queues = world.process(1).matching
            return results[1], queues.max_unexpected, world

        eager_total, eager_watermark, _ = run(MpiConfig())
        rdv_total, rdv_watermark, rdv_world = run(RDV)
        assert eager_total >= 6 * 200_000
        assert rdv_total >= 6 * 200_000
        # Both park up to 6 envelopes, but the rendezvous envelopes are
        # tiny; verify the protocol actually engaged for all of them.
        assert rdv_world.process(0).rendezvous_sends == 6


class TestNonblockingRendezvous:
    def test_spawned_send_completes_and_data_flows(self):
        bed, world = build_world(2, 0, config=RDV)

        def body(proc):
            if proc.rank == 0:
                sender = bed.nexus.spawn(
                    proc.send(Padded("async-big", 80_000), dest=1))
                yield from proc.context.wait(sender)
                assert sender._ok
            elif proc.rank == 1:
                data, _ = yield from proc.recv(source=0)
                return data

        results = run_spmd(bed, world, body)
        assert results[1] == "async-big"

    def test_sendrecv_pair_of_large_messages(self):
        bed, world = build_world(2, 0, config=RDV)

        def body(proc):
            other = 1 - proc.rank
            data, _ = yield from proc.sendrecv(
                Padded(f"from{proc.rank}", 60_000), other, 1, other, 1)
            return data

        results = run_spmd(bed, world, body)
        assert results == ["from1", "from0"]
