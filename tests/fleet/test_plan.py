"""Fleet plans: key shapes, seed substreams, task generation."""

import numpy as np
import pytest

from repro.fleet import (
    BenchFanout,
    FleetPool,
    ScenarioGrid,
    SeedReplication,
    derive_task_seed,
    key_slug,
    run_plan,
)
from repro.load import FixedSize, FleetSpec, LoadScenario, OpenLoop

from .runners import FINE, Calls, results


def _scenario(seed=7):
    return LoadScenario(
        name="tiny",
        fleets=(FleetSpec("rpc", clients=2, arrival=OpenLoop(rate=40.0),
                          sizes=FixedSize(512), route="remote",
                          service_ops=5, service_time=100e-6),),
        duration=0.05, seed=seed)


class TestKeys:
    def test_grid_keys_encode_plan_position(self):
        grid = ScenarioGrid(name="g", base=_scenario(),
                            rates=(100.0, 250.5), factors=(0.5, 1.0))
        keys = [task.key for task in grid.tasks()]
        assert keys == ["g/rate-100", "g/rate-250.5", "g/x0.5", "g/x1"]

    def test_replication_keys_are_zero_padded(self):
        plan = SeedReplication(name="rep", base=_scenario(), replicas=3)
        keys = [task.key for task in plan.tasks()]
        assert keys == ["rep/seed-000", "rep/seed-001", "rep/seed-002"]

    def test_bench_keys_follow_selection_order(self):
        plan = BenchFanout(artefacts=("table1", "figure4"))
        keys = [task.key for task in plan.tasks()]
        # Sorted key order == selection order, by construction.
        assert keys == ["bench/00-table1", "bench/01-figure4"]
        assert sorted(keys) == keys

    def test_key_slug_is_filesystem_safe(self):
        assert key_slug("g/rate-250.5") == "g-rate-250.5"
        assert key_slug("a b:c") == "a-b-c"
        assert "/" not in key_slug("x/y/z")

    def test_grid_spools_under_key_slugs(self):
        grid = ScenarioGrid(name="g", base=_scenario(), factors=(1.0,),
                            stream_root="spools")
        payload = grid.tasks()[0].payload
        assert payload["stream_dir"].endswith("g-x1")


class TestSeedSubstreams:
    def test_seed_is_stable_and_bounded(self):
        seed = derive_task_seed(7, "rep/seed-000")
        assert seed == derive_task_seed(7, "rep/seed-000")
        assert 0 <= seed < 2 ** 63

    def test_seeds_distinct_across_task_keys(self):
        keys = [f"rep/seed-{index:03d}" for index in range(64)]
        keys += [f"grid/x{factor:g}" for factor in range(1, 33)]
        seeds = {derive_task_seed(7, key) for key in keys}
        assert len(seeds) == len(keys)

    def test_substreams_do_not_overlap(self):
        # Beyond distinct integer seeds: the derived *streams* must not
        # share draws, or replicas would correlate.
        from repro.simnet.random import derive

        draws: list[set] = []
        for index in range(8):
            sequence = derive(7, "fleet", f"rep/seed-{index:03d}")
            rng = np.random.Generator(np.random.PCG64(sequence))
            draws.append(set(rng.integers(0, 2 ** 63, size=64).tolist()))
        union: set = set()
        for sample in draws:
            assert not (union & sample), "replica substreams overlap"
            union |= sample

    def test_replication_seeds_are_prefix_stable(self):
        base = _scenario()
        three = SeedReplication(name="rep", base=base, replicas=3)
        five = SeedReplication(name="rep", base=base, replicas=5)
        seeds_3 = [t.payload["scenario"].seed for t in three.tasks()]
        seeds_5 = [t.payload["scenario"].seed for t in five.tasks()]
        # Adding replicas never perturbs the existing ones.
        assert seeds_5[:3] == seeds_3
        assert len(set(seeds_5)) == 5

    def test_explicit_root_seed_overrides_scenario_seed(self):
        base = _scenario(seed=7)
        default = SeedReplication(name="rep", base=base, replicas=2)
        rooted = SeedReplication(name="rep", base=base, replicas=2,
                                 seed=1234)
        assert ([t.payload["scenario"].seed for t in default.tasks()]
                != [t.payload["scenario"].seed for t in rooted.tasks()])


class TestRunPlan:
    def test_serial_run_is_key_ordered_and_ok(self):
        plan = ScenarioGrid(name="g", base=_scenario(), factors=(0.5, 1.0))
        run = run_plan(plan, jobs=1)
        assert list(run.outcomes) == sorted(run.outcomes)
        assert all(result.delivered > 0 for result in results(run).values())

    def test_jobs_must_be_positive(self):
        plan = BenchFanout(artefacts=("table1",))
        with pytest.raises(ValueError):
            run_plan(plan, jobs=0)

    def test_run_records_the_width_that_ran(self):
        plan = Calls({"a": (FINE, {"value": 1})})
        assert run_plan(plan, jobs=1).jobs == 1
        with FleetPool(2, name="explicit") as pool:
            # An explicit pool wins over ``jobs``; the run says so.
            run = run_plan(plan, jobs=1, pool=pool)
        assert results(run) == {"a": 2}
        assert run.jobs == 2
