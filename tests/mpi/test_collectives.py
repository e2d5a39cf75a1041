"""Integration tests for the tree-based collectives."""

import numpy as np
import pytest

from repro.mpi.errors import MpiError

from .conftest import build_world, run_spmd


@pytest.fixture(params=[1, 2, 4, 6, 7])
def sized_world(request):
    n = request.param
    ranks_a = (n + 1) // 2
    ranks_b = n - ranks_a
    return build_world(ranks_a, ranks_b), n


class TestBarrier:
    def test_barrier_synchronises(self, world4):
        bed, world = world4
        times = {}

        def body(proc):
            yield from proc.context.charge(0.01 * proc.rank)  # skewed
            yield from proc.barrier()
            times[proc.rank] = bed.nexus.now

        run_spmd(bed, world, body)
        # nobody leaves before the latest arrival
        assert min(times.values()) >= 0.03

    def test_barrier_all_sizes(self, sized_world):
        (bed, world), n = sized_world

        def body(proc):
            yield from proc.barrier()
            return proc.rank

        assert run_spmd(bed, world, body) == list(range(n))


class TestBcast:
    def test_bcast_from_each_root(self, world4):
        bed, world = world4

        def body(proc):
            out = []
            for root in range(world.size):
                value = yield from proc.bcast(
                    f"from{root}" if proc.rank == root else None, root=root)
                out.append(value)
            return out

        results = run_spmd(bed, world, body)
        expected = [f"from{r}" for r in range(world.size)]
        assert all(result == expected for result in results)

    def test_bcast_array(self, world4):
        bed, world = world4

        def body(proc):
            value = yield from proc.bcast(
                np.arange(6) if proc.rank == 0 else None, root=0)
            return value.sum()

        assert run_spmd(bed, world, body) == [15] * 4

    def test_bcast_all_sizes(self, sized_world):
        (bed, world), n = sized_world

        def body(proc):
            value = yield from proc.bcast(
                "v" if proc.rank == 0 else None, root=0)
            return value

        assert run_spmd(bed, world, body) == ["v"] * n


class TestReduceAllreduce:
    def test_reduce_sum_to_each_root(self, world4):
        bed, world = world4

        def body(proc):
            out = []
            for root in range(world.size):
                value = yield from proc.reduce(proc.rank + 1, "sum",
                                               root=root)
                out.append(value)
            return out

        results = run_spmd(bed, world, body)
        total = sum(range(1, world.size + 1))
        for rank, result in enumerate(results):
            for root, value in enumerate(result):
                assert value == (total if rank == root else None)

    @pytest.mark.parametrize("op,expected", [
        ("sum", 0 + 1 + 2 + 3), ("prod", 0), ("max", 3), ("min", 0)])
    def test_named_ops(self, world4, op, expected):
        bed, world = world4

        def body(proc):
            value = yield from proc.allreduce(proc.rank, op)
            return value

        assert run_spmd(bed, world, body) == [expected] * 4

    def test_array_elementwise(self, world4):
        bed, world = world4

        def body(proc):
            value = yield from proc.allreduce(
                np.array([proc.rank, -proc.rank]), "max")
            return value.tolist()

        assert run_spmd(bed, world, body) == [[3, 0]] * 4

    def test_custom_callable_op(self, world4):
        bed, world = world4

        def body(proc):
            value = yield from proc.allreduce(
                str(proc.rank), lambda a, b: a + b)
            return value

        results = run_spmd(bed, world, body)
        # deterministic binomial combination order, same on every rank
        assert len(set(results)) == 1
        assert sorted(results[0]) == ["0", "1", "2", "3"]

    def test_unknown_op_rejected(self, world4):
        bed, world = world4

        def body(proc):
            yield from proc.allreduce(1, "median")

        handles = world.run_spmd(body, ranks=[0])
        with pytest.raises(MpiError, match="unknown reduction"):
            bed.nexus.run(until=handles[0])

    def test_allreduce_all_sizes(self, sized_world):
        (bed, world), n = sized_world

        def body(proc):
            totals = []
            for i in range(10):  # back to back: no round bleeds into the next
                value = yield from proc.allreduce(proc.rank + i, "sum")
                totals.append(value)
            return totals

        assert run_spmd(bed, world, body) == [
            [sum(range(n)) + n * i for i in range(10)]] * n


class TestGatherScatter:
    def test_gather(self, world4):
        bed, world = world4

        def body(proc):
            gathered = yield from proc.gather(proc.rank ** 2, root=2)
            return gathered

        results = run_spmd(bed, world, body)
        assert results[2] == [0, 1, 4, 9]
        assert results[0] is None

    def test_allgather(self, world4):
        bed, world = world4

        def body(proc):
            gathered = yield from proc.allgather(proc.rank * 2)
            return gathered

        assert run_spmd(bed, world, body) == [[0, 2, 4, 6]] * 4

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

    def test_alltoall(self, world4):
        bed, world = world4

        def body(proc):
            values = [proc.rank * 10 + dest for dest in range(4)]
            received = yield from proc.alltoall(values)
            return received

        results = run_spmd(bed, world, body)
        for rank, received in enumerate(results):
            assert received == [source * 10 + rank for source in range(4)]


class TestIsolation:
    def test_collectives_do_not_disturb_p2p(self, world4):
        """A pending wildcard p2p receive must not capture collective
        traffic (separate matching contexts)."""
        bed, world = world4

        def body(proc):
            if proc.rank == 0:
                pending = proc.irecv()  # wildcard, p2p space
                value = yield from proc.allreduce(1, "sum")
                assert not pending.test()
                pending.cancel()
                return value
            value = yield from proc.allreduce(1, "sum")
            return value

        assert run_spmd(bed, world, body) == [4] * 4

    def test_interleaved_tagged_p2p_and_collectives(self, world4):
        bed, world = world4

        def body(proc):
            n = world.size
            right, left = (proc.rank + 1) % n, (proc.rank - 1) % n
            ring, _ = yield from proc.sendrecv(proc.rank, right, 1, left, 1)
            total = yield from proc.allreduce(ring, "sum")
            ring2, _ = yield from proc.sendrecv(total, right, 2, left, 2)
            return ring2

        assert run_spmd(bed, world, body) == [6, 6, 6, 6]
