"""The determinism contract: parallel execution changes nothing.

These tests run real work through real spawned workers (the process's
warm pool, so spawn is paid once), which makes them the slowest in the
fleet tier — each one asserts byte equality between a serial run and a
parallel run of the same plan.
"""

import dataclasses

from repro.bench.record import BenchRecord
from repro.fleet import (
    BenchFanout,
    FleetPool,
    ScenarioGrid,
    merge_bench_outcomes,
    merge_load_results,
    run_plan,
    shutdown,
)
from repro.fleet.plan import key_slug
from repro.load import FixedSize, FleetSpec, LoadScenario, OpenLoop, SLO
from repro.load.capacity import find_capacity
from repro.obs.stream import merge_spool_manifests, write_merged_manifest
from repro.util.document import check, dumps


def _scenario():
    return LoadScenario(
        name="tiny",
        fleets=(FleetSpec("rpc", clients=2, arrival=OpenLoop(rate=40.0),
                          sizes=FixedSize(512), route="remote",
                          service_ops=5, service_time=100e-6),),
        duration=0.05, seed=7)


class TestGridDeterminism:
    def test_serial_and_pool_merge_byte_identical(self, tmp_path):
        shutdown()
        documents, manifests = set(), set()
        # jobs=1, then a cold jobs=2 call, then a warm one, each
        # spooling its spans under a root of its own.
        for index, jobs in enumerate((1, 2, 2)):
            root = str(tmp_path / f"run{index}")
            grid = ScenarioGrid(name="g", base=_scenario(),
                                factors=(0.5, 0.75, 1.0, 1.25),
                                stream_root=root)
            run = run_plan(grid, jobs=jobs)
            assert all(outcome.ok for outcome in run.outcomes.values())
            assert run.jobs == jobs
            merged = merge_load_results(run.outcomes, plan=grid.name)
            check(merged)
            documents.add(dumps(merged))
            manifest = merge_spool_manifests(
                root, {key: key_slug(key) for key in run.outcomes})
            assert manifest["task_count"] == 4
            assert manifest["shard_count"] > 0
            path = write_merged_manifest(root, manifest)
            check(manifest, path=path)
            with open(path, "rb") as handle:
                manifests.add(handle.read())
        assert len(documents) == 1
        assert len(manifests) == 1


class TestBenchFanoutDeterminism:
    def test_merged_records_byte_identical(self):
        plan = BenchFanout(artefacts=("baselines", "analysis"))
        serial = run_plan(plan, jobs=1)
        pooled = run_plan(plan, jobs=2)

        record_a = BenchRecord("fleet")
        merged_a = merge_bench_outcomes(record_a, serial.outcomes)
        record_b = BenchRecord("fleet")
        merged_b = merge_bench_outcomes(record_b, pooled.outcomes)

        # The record documents (what --record writes) match bytewise.
        assert dumps(record_a.to_document()) == dumps(record_b.to_document())
        # So does the replayed stdout, artefact by artefact.
        assert ([(r.name, r.stdout) for r in merged_a]
                == [(r.name, r.stdout) for r in merged_b])


class TestSpeculativeCapacity:
    """find_capacity(parallel=k) is an *optimisation*, not a variant:

    same capacity, same first failing rate, same probe sequence, same
    verdicts — on every Table-1 tuning.
    """

    def test_parallel_matches_serial_on_table1_configs(self):
        from repro.bench.load import CAPACITY_SLO, capacity_variants

        kwargs = dict(low=200.0, high=6000.0, tolerance=0.05, max_probes=6)
        # The caller's own pool, narrower than the speculation width.
        with FleetPool(2, name="explicit") as pool:
            for name, variant in capacity_variants().items():
                variant = dataclasses.replace(variant, duration=0.2)
                serial = find_capacity(variant, CAPACITY_SLO, **kwargs)
                parallel = find_capacity(variant, CAPACITY_SLO,
                                         parallel=4, pool=pool, **kwargs)
                assert parallel.capacity == serial.capacity, name
                assert (parallel.first_failing_rate
                        == serial.first_failing_rate), name
                assert ([p.rate for p in parallel.probes]
                        == [p.rate for p in serial.probes]), name
                assert ([p.passed for p in parallel.probes]
                        == [p.passed for p in serial.probes]), name

    def test_on_probe_sees_serial_sequence(self):
        scenario = _scenario()
        slo = SLO(name="tight", p99_latency_us=50_000.0,
                  min_goodput_fraction=0.9)
        kwargs = dict(low=50.0, high=2000.0, tolerance=0.2, max_probes=4)
        seen_serial, seen_parallel = [], []
        find_capacity(scenario, slo, on_probe=seen_serial.append,
                      **kwargs)
        # Twice on the warm pool: probe for probe the serial answer.
        for _ in range(2):
            seen_parallel.clear()
            warm = find_capacity(scenario, slo,
                                 on_probe=seen_parallel.append,
                                 parallel=2, **kwargs)
            assert seen_parallel == seen_serial
            assert warm.probes == tuple(seen_serial)
