"""Integration tests for point-to-point mini-MPI over the full stack."""

import numpy as np
import pytest

from repro.mpi import ANY_SOURCE, ANY_TAG, Padded
from repro.mpi.errors import RankError

from .conftest import build_world, run_spmd


class TestSendRecv:
    def test_blocking_pair(self, world4):
        bed, world = world4

        def body(proc):
            if proc.rank == 0:
                yield from proc.send("hello", dest=1, tag=7)
            elif proc.rank == 1:
                data, status = yield from proc.recv(source=0, tag=7)
                return data, status.source, status.tag
            return None

        results = run_spmd(bed, world, body)
        assert results[1] == ("hello", 0, 7)

    def test_cross_partition_pair(self, world4):
        """Ranks 0 (partition A) and 2 (partition B) talk over TCP."""
        bed, world = world4

        def body(proc):
            if proc.rank == 0:
                yield from proc.send(np.arange(5), dest=2, tag=1)
            elif proc.rank == 2:
                data, _status = yield from proc.recv(source=0, tag=1)
                return data.sum()
            return None

        results = run_spmd(bed, world, body)
        assert results[2] == 10
        assert bed.nexus.transports.get("tcp").messages_sent >= 1

    def test_wildcard_receive(self, world4):
        bed, world = world4

        def body(proc):
            if proc.rank in (1, 2, 3):
                yield from proc.send(proc.rank * 10, dest=0,
                                     tag=proc.rank)
            else:
                got = []
                for _ in range(3):
                    data, status = yield from proc.recv(ANY_SOURCE, ANY_TAG)
                    got.append((status.source, data, status.tag))
                return sorted(got)

        results = run_spmd(bed, world, body)
        assert results[0] == [(1, 10, 1), (2, 20, 2), (3, 30, 3)]

    def test_message_ordering_same_pair(self, world4):
        """Non-overtaking: messages between one pair, same tag, arrive in
        send order."""
        bed, world = world4

        def body(proc):
            if proc.rank == 0:
                for index in range(20):
                    yield from proc.send(index, dest=1, tag=0)
            elif proc.rank == 1:
                out = []
                for _ in range(20):
                    data, _ = yield from proc.recv(source=0, tag=0)
                    out.append(data)
                return out
            return None

        results = run_spmd(bed, world, body)
        assert results[1] == list(range(20))

    def test_sendrecv_exchange(self, world4):
        bed, world = world4

        def body(proc):
            n = world.size
            right = (proc.rank + 1) % n
            left = (proc.rank - 1) % n
            data, _ = yield from proc.sendrecv(
                proc.rank, right, 5, left, 5)
            return data

        results = run_spmd(bed, world, body)
        assert results == [3, 0, 1, 2]

    def test_bad_dest_rank(self, world4):
        bed, world = world4

        def body(proc):
            if proc.rank == 0:
                yield from proc.send(1, dest=99)

        handles = world.run_spmd(body, ranks=[0])
        with pytest.raises(RankError):
            bed.nexus.run(until=handles[0])

    def test_padded_payload_sizes_wire(self, world4):
        bed, world = world4

        def body(proc):
            if proc.rank == 0:
                yield from proc.send(Padded("tiny", 512 * 1024), dest=1)
            elif proc.rank == 1:
                data, status = yield from proc.recv(source=0)
                return data, status.nbytes
            return None

        results = run_spmd(bed, world, body)
        data, nbytes = results[1]
        assert data == "tiny"
        assert nbytes >= 512 * 1024


class TestNonblocking:
    def test_send_irecv(self, world4):
        bed, world = world4

        def body(proc):
            if proc.rank == 0:
                yield from proc.send("async", dest=1, tag=2)
            elif proc.rank == 1:
                request = proc.irecv(source=0, tag=2)
                data, status = yield from request.wait()
                return data, status.tag
            return None

        results = run_spmd(bed, world, body)
        assert results[1] == ("async", 2)

    def test_outstanding_irecvs_match_by_tag(self, world4):
        """Several posted irecvs, waited on one by one: each takes the
        message with its own tag, whatever the send order."""
        bed, world = world4

        def body(proc):
            if proc.rank == 0:
                for index in reversed(range(4)):
                    yield from proc.send(index, dest=1, tag=index)
            elif proc.rank == 1:
                requests = [proc.irecv(source=0, tag=index)
                            for index in range(4)]
                results = []
                for request in requests:
                    data, _status = yield from request.wait()
                    results.append(data)
                return results
            return None

        results = run_spmd(bed, world, body)
        assert results[1] == [0, 1, 2, 3]

    def test_double_wait_rejected(self, world4):
        bed, world = world4

        def body(proc):
            if proc.rank == 0:
                yield from proc.send(1, dest=1)
            elif proc.rank == 1:
                request = proc.irecv(source=0)
                yield from request.wait()
                try:
                    yield from request.wait()
                except Exception as exc:
                    return type(exc).__name__
            return None

        results = run_spmd(bed, world, body)
        assert results[1] == "RequestError"
