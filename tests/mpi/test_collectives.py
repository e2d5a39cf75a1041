"""Integration tests for the linear gather and scatter collectives."""

import pytest

from repro.mpi.errors import MpiError

from .conftest import build_world, run_spmd


@pytest.fixture(params=[1, 2, 4, 6, 7])
def sized_world(request):
    n = request.param
    ranks_a = (n + 1) // 2
    ranks_b = n - ranks_a
    return build_world(ranks_a, ranks_b), n


class TestGatherScatter:
    def test_gather(self, world4):
        bed, world = world4

        def body(proc):
            gathered = yield from proc.gather(proc.rank ** 2, root=2)
            return gathered

        results = run_spmd(bed, world, body)
        assert results[2] == [0, 1, 4, 9]
        assert results[0] is None

    def test_scatter(self, world4):
        bed, world = world4

        def body(proc):
            values = ([f"item{i}" for i in range(4)]
                      if proc.rank == 1 else None)
            item = yield from proc.scatter(values, root=1)
            return item

        assert run_spmd(bed, world, body) == [f"item{i}" for i in range(4)]

    def test_scatter_wrong_count_rejected(self, world4):
        bed, world = world4

        def body(proc):
            if proc.rank == 0:
                yield from proc.scatter(["only-one"], root=0)

        handles = world.run_spmd(body, ranks=[0])
        with pytest.raises(MpiError, match="scatter root"):
            bed.nexus.run(until=handles[0])

    def test_gather_scatter_all_sizes(self, sized_world):
        (bed, world), n = sized_world

        def body(proc):
            totals = []
            for i in range(10):  # back to back: no round bleeds into the next
                gathered = yield from proc.gather(proc.rank + i, root=0)
                total = yield from proc.scatter(
                    None if gathered is None else [sum(gathered)] * n,
                    root=0)
                totals.append(total)
            return totals

        assert run_spmd(bed, world, body) == [
            [sum(range(n)) + n * i for i in range(10)]] * n


class TestIsolation:
    def test_collectives_do_not_disturb_p2p(self, world4):
        """A pending wildcard p2p receive must not capture collective
        traffic (separate matching contexts)."""
        bed, world = world4

        def body(proc):
            if proc.rank == 0:
                pending = proc.irecv()  # wildcard, p2p space
                gathered = yield from proc.gather(proc.rank, root=0)
                data, status = yield from pending.wait()
                return gathered, data, status.source
            yield from proc.gather(proc.rank, root=0)
            if proc.rank == 3:
                yield from proc.send("user", dest=0, tag=5)
            return None

        results = run_spmd(bed, world, body)
        assert results[0] == ([0, 1, 2, 3], "user", 3)

    def test_interleaved_tagged_p2p_and_collectives(self, world4):
        bed, world = world4

        def body(proc):
            n = world.size
            right, left = (proc.rank + 1) % n, (proc.rank - 1) % n
            ring, _ = yield from proc.sendrecv(proc.rank, right, 1, left, 1)
            gathered = yield from proc.gather(ring, root=0)
            total = yield from proc.scatter(
                None if gathered is None else [sum(gathered)] * n, root=0)
            ring2, _ = yield from proc.sendrecv(total, right, 2, left, 2)
            return ring2

        assert run_spmd(bed, world, body) == [6, 6, 6, 6]
