"""Tests for the climate model components: decomposition, halo exchange,
and model physics (run both serially and distributed)."""

import numpy as np
import pytest

from repro.apps.climate.atmosphere import Atmosphere
from repro.apps.climate.config import TEST_CONFIG, ClimateConfig
from repro.apps.climate.coupling import atmo_children, ocean_parent
from repro.apps.climate.grid import Slab, halo_exchange
from repro.apps.climate.ocean import Ocean
from repro.mpi import MPIWorld
from repro.testbeds import make_sp2


class TestSlab:
    def test_decomposition_covers_grid(self):
        field = np.arange(32.0).reshape(8, 4)
        slabs = [Slab.from_global(field, rank, 4) for rank in range(4)]
        reassembled = np.vstack([s.interior for s in slabs])
        assert np.array_equal(reassembled, field)

    def test_neighbours(self):
        slabs = [Slab.zeros(r, 4, 4, 8) for r in range(4)]
        assert slabs[0].south_rank is None
        assert slabs[0].north_rank == 1
        assert slabs[3].north_rank is None
        assert slabs[2].south_rank == 1

    def test_boundary_ghosts_zero_gradient(self):
        slab = Slab.from_global(np.arange(8.0).reshape(2, 4), 0, 1)
        slab.fill_boundary_ghosts()
        assert np.array_equal(slab.data[0], slab.data[1])
        assert np.array_equal(slab.data[-1], slab.data[-2])


class TestHaloExchange:
    def test_ghosts_match_neighbour_interiors(self):
        bed = make_sp2(nodes_a=4, nodes_b=0)
        contexts = [bed.nexus.context(h) for h in bed.hosts_a]
        world = MPIWorld(bed.nexus, contexts)
        field = np.arange(64.0).reshape(8, 8)
        slabs = {}

        def body(proc):
            slab = Slab.from_global(field, proc.rank, 4)
            slabs[proc.rank] = slab
            yield from halo_exchange(proc, world.comm_world, slab)

        handles = world.run_spmd(body)
        bed.nexus.run(until=bed.nexus.sim.all_of(handles))
        for rank in range(4):
            slab = slabs[rank]
            if rank > 0:
                assert np.array_equal(slab.data[0],
                                      slabs[rank - 1].interior[-1])
            if rank < 3:
                assert np.array_equal(slab.data[-1],
                                      slabs[rank + 1].interior[0])


class TestPhysics:
    def test_atmosphere_conserves_mean_height_serial(self):
        model = Atmosphere(0, 1, 16, 8, seed=0)
        before = model.h.interior.mean()
        for _ in range(10):
            model.h.fill_boundary_ghosts()
            model.u.fill_boundary_ghosts()
            model.v.fill_boundary_ghosts()
            model.step_interior()
        after = model.h.interior.mean()
        # Diffusion + advection with reflecting poles: mean height drifts
        # only through the advective term; it must stay bounded and close.
        assert after == pytest.approx(before, rel=0.05)
        assert np.isfinite(model.h.interior).all()

    def test_atmosphere_fields_stay_bounded(self):
        model = Atmosphere(0, 1, 16, 8, seed=1)
        initial_range = np.ptp(model.h.interior)
        for _ in range(50):
            for slab in model.slabs:
                slab.fill_boundary_ghosts()
            model.step_interior()
        assert np.ptp(model.h.interior) <= initial_range * 1.5
        assert np.abs(model.u.interior).max() < 100

    def test_ocean_relaxes_toward_flux(self):
        model = Ocean(0, 1, 16, 8, seed=0)
        model.flux.interior[:] = 5.0
        before = model.sst.interior.mean()
        for _ in range(20):
            model.sst.fill_boundary_ghosts()
            model.step_interior()
        assert model.sst.interior.mean() > before  # warming under +flux

    def test_deterministic_physics(self):
        a = Atmosphere(0, 1, 16, 8, seed=3)
        b = Atmosphere(0, 1, 16, 8, seed=3)
        for model in (a, b):
            for _ in range(5):
                for slab in model.slabs:
                    slab.fill_boundary_ghosts()
                model.step_interior()
        assert a.checksum() == b.checksum()

    def test_distributed_matches_serial(self):
        """4-rank distributed atmosphere == single-rank run, bitwise."""
        serial = Atmosphere(0, 1, 16, 8, seed=0)
        for _ in range(3):
            for slab in serial.slabs:
                slab.fill_boundary_ghosts()
            serial.step_interior()

        bed = make_sp2(nodes_a=4, nodes_b=0)
        contexts = [bed.nexus.context(h) for h in bed.hosts_a]
        world = MPIWorld(bed.nexus, contexts)
        gathered = {}

        def body(proc):
            model = Atmosphere(proc.rank, 4, 16, 8, seed=0)
            for _ in range(3):
                for slab in model.slabs:
                    yield from halo_exchange(proc, world.comm_world, slab)
                model.step_interior()
            pieces = yield from proc.gather(model.h.interior.copy(), root=0,
                                            comm=world.comm_world)
            if pieces is not None:
                gathered["h"] = np.vstack(pieces)

        handles = world.run_spmd(body)
        bed.nexus.run(until=bed.nexus.sim.all_of(handles))
        assert np.allclose(gathered["h"], serial.h.interior, atol=1e-12)


class TestCouplingMap:
    def test_children_partition_atmo_ranks(self):
        children = [atmo_children(o, 16, 8) for o in range(8)]
        flattened = [rank for group in children for rank in group]
        assert sorted(flattened) == list(range(16))

    def test_parent_inverse_of_children(self):
        for ocean_rank in range(8):
            for atmo_rank in atmo_children(ocean_rank, 16, 8):
                assert ocean_parent(atmo_rank, 16, 8) == ocean_rank


class TestConfig:
    def test_paper_defaults(self):
        cfg = ClimateConfig()
        assert cfg.atmo_ranks == 16
        assert cfg.ocean_ranks == 8
        assert cfg.couple_every == 2
        assert cfg.total_ranks == 24

    def test_validation(self):
        with pytest.raises(ValueError):
            ClimateConfig(steps=3, couple_every=2)
        with pytest.raises(ValueError):
            ClimateConfig(atmo_ranks=6, ocean_ranks=4)
        with pytest.raises(ValueError):
            ClimateConfig(atmo_ny=30, atmo_ranks=16)

    def test_test_config_small(self):
        assert TEST_CONFIG.total_ranks == 6
        assert TEST_CONFIG.steps // TEST_CONFIG.couple_every == 1
