"""An MPI world's startpoints: bound on first use, to the startup snapshot.

``MPIWorld`` models the process manager's startup exchange as free and on
demand: it keeps each rank's published descriptor table when it is built,
and a rank binds its startpoint to a peer the first time it sends there.
These tests pin what that must keep from a mesh wired eagerly at
startup: out-of-world ranks still fail by name, and each link carries the
table its peer published when the world was built, whatever the peer's
context publishes later.
"""

import pytest

from repro.mpi import MPIWorld
from repro.mpi.errors import RankError

from .conftest import run_spmd


class TestOutOfWorldRanks:
    def test_startpoint_to_names_the_rank(self, world4):
        _bed, world = world4
        proc = world.process(0)
        for rank in (99, 4, -1):
            with pytest.raises(RankError, match=f"no route to {rank}"):
                proc.startpoint_to(rank)
        assert proc._startpoints == {}

    def test_send_names_the_rank(self, world4):
        bed, world = world4

        def body(proc):
            yield from proc.send("x", dest=99)

        handles = world.run_spmd(body, ranks=[0])
        with pytest.raises(RankError, match="rank 99 out of range"):
            bed.nexus.run(until=handles[0])


class TestLazyMesh:
    def test_a_new_world_has_no_startpoints(self, world6):
        _bed, world = world6
        assert all(proc._startpoints == {} for proc in world.processes)
        assert len(world.tables) == world.size

    def test_ranks_build_exactly_the_links_they_use(self, world6):
        """A ring where every rank sends to the next two ranks: each rank
        builds those two startpoints and no other."""
        bed, world = world6
        n = world.size

        def body(proc):
            peers = [(proc.rank + k) % n for k in (1, 2)]
            for tag, peer in enumerate(peers):
                yield from proc.send(proc.rank, dest=peer, tag=tag)
            got = []
            for tag, k in enumerate((1, 2)):
                value, _status = yield from proc.recv(
                    source=(proc.rank - k) % n, tag=tag)
                got.append(value)
            return got

        results = run_spmd(bed, world, body)
        assert results == [[(r - 1) % n, (r - 2) % n] for r in range(n)]
        for proc in world.processes:
            assert set(proc._startpoints) == {(proc.rank + 1) % n,
                                              (proc.rank + 2) % n}

    def test_startpoint_is_built_once(self, world4):
        _bed, world = world4
        proc = world.process(0)
        sp = proc.startpoint_to(1)
        assert proc.startpoint_to(1) is sp
        link = sp.links[0]
        peer = world.process(1)
        assert (link.context_id, link.endpoint_id) == (peer.context.id,
                                                       peer.endpoint.id)


class TestStartupSnapshot:
    def test_links_share_the_table_published_at_startup(self, world4):
        _bed, world = world4
        for proc in world.processes:
            for peer in world.processes:
                table = proc.startpoint_to(peer.rank).links[0].table
                assert table is peer.context.export_table()
                assert table is world.tables[peer.rank]

    def test_a_later_export_table_rebind_does_not_reach_the_world(self,
                                                                  world4):
        """Rank 1 publishes a TCP-first table after the world is built:
        rank 0's link (bound later still) keeps the startup table and
        selects MPL; a world built afterwards sees the new table."""
        bed, world = world4
        ctx1 = world.process(1).context
        startup = ctx1.export_table()
        ctx1._export_table = startup.promote("tcp")

        sp = world.process(0).startpoint_to(1)
        link = sp.links[0]
        assert link.table is startup
        assert sp.ensure_connected(link).method == "mpl"

        later = MPIWorld(bed.nexus, [p.context for p in world.processes])
        sp_later = later.process(0).startpoint_to(1)
        assert sp_later.links[0].table.methods[0] == "tcp"
        assert sp_later.ensure_connected(sp_later.links[0]).method == "tcp"
