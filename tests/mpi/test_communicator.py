"""Tests for communicators: groups, rank translation, sub-communicators."""

import pytest

from repro.mpi.errors import RankError

from .conftest import build_world, run_spmd


class TestGroups:
    def test_world_communicator(self, world4):
        _bed, world = world4
        comm = world.comm_world
        assert comm.size == 4
        assert comm.world_ranks == (0, 1, 2, 3)
        for rank in range(4):
            assert comm.rank_of_world(rank) == rank
            assert comm.world_rank(rank) == rank

    def test_subset_rank_translation(self, world4):
        _bed, world = world4
        comm = world.create_comm([3, 1])
        assert comm.size == 2
        assert comm.rank_of_world(3) == 0
        assert comm.rank_of_world(1) == 1
        assert comm.world_rank(0) == 3
        assert not comm.contains_world(0)

    def test_duplicate_ranks_rejected(self, world4):
        _bed, world = world4
        with pytest.raises(RankError):
            world.create_comm([0, 0])

    def test_out_of_range_rejected(self, world4):
        _bed, world = world4
        with pytest.raises(RankError):
            world.create_comm([0, 9])
        with pytest.raises(RankError):
            world.comm_world.world_rank(7)
        with pytest.raises(RankError):
            world.comm_world.rank_of_world(7)

    def test_dup_gets_fresh_context(self, world4):
        _bed, world = world4
        dup = world.comm_world.dup()
        assert dup.world_ranks == world.comm_world.world_ranks
        assert dup.p2p_context != world.comm_world.p2p_context

    def test_subgroup(self, world4):
        _bed, world = world4
        comm = world.create_comm([0, 2, 3])
        sub = comm.subgroup([2, 0])
        assert sub.world_ranks == (3, 0)

    def test_context_spaces_disjoint(self, world4):
        _bed, world = world4
        comm = world.comm_world
        assert comm.p2p_context != comm.collective_context
        other = world.create_comm([0, 1])
        spaces = {comm.p2p_context, comm.collective_context,
                  other.p2p_context, other.collective_context}
        assert len(spaces) == 4


class TestSubCommunication:
    def test_p2p_in_subcomm_uses_local_ranks(self, world4):
        bed, world = world4
        sub = world.create_comm([2, 0])  # world 2 is sub-rank 0

        def body(proc):
            if proc.rank == 2:   # sub rank 0
                yield from proc.send("to-sub-1", dest=1, tag=0, comm=sub)
            elif proc.rank == 0:  # sub rank 1
                data, status = yield from proc.recv(source=0, tag=0,
                                                    comm=sub)
                return data, status.source
            return None

        results = run_spmd(bed, world, body, ranks=[0, 2])
        assert results[0] == ("to-sub-1", 0)

    def test_collective_scoped_to_subcomm(self):
        bed, world = build_world(3, 3)
        evens = world.create_comm([0, 2, 4])
        odds = world.create_comm([1, 3, 5])

        def body(proc):
            comm = evens if proc.rank % 2 == 0 else odds
            gathered = yield from proc.gather(proc.rank, root=0, comm=comm)
            return gathered

        results = run_spmd(bed, world, body)
        # sub-rank 0 of each communicator is world rank 0 or 1
        assert results == [[0, 2, 4], [1, 3, 5], None, None, None, None]

    def test_non_member_call_rejected(self, world4):
        bed, world = world4
        sub = world.create_comm([0, 1])

        def body(proc):
            yield from proc.send(1, dest=0, comm=sub)

        handles = world.run_spmd(body, ranks=[3])
        with pytest.raises(RankError, match="not a member"):
            bed.nexus.run(until=handles[0])

    def test_atmo_ocean_pattern(self):
        """The climate model's structure: two disjoint model communicators
        plus world-level coupling traffic."""
        bed, world = build_world(4, 2)
        atmo = world.create_comm(range(4))
        ocean = world.create_comm(range(4, 6))

        def body(proc):
            if proc.rank < 4:
                internal = yield from proc.gather(proc.rank, comm=atmo)
                if proc.rank == 0:
                    yield from proc.send(tuple(internal), dest=4, tag=0)
                return internal
            internal = yield from proc.gather(proc.rank, comm=ocean)
            if proc.rank == 4:
                coupled, _ = yield from proc.recv(source=0, tag=0)
                return internal, coupled
            return internal

        results = run_spmd(bed, world, body)
        assert results[:4] == [[0, 1, 2, 3], None, None, None]
        assert results[4] == ([4, 5], (0, 1, 2, 3))
        assert results[5] is None
