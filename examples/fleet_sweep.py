#!/usr/bin/env python
"""Fleet fan-out: multi-seed replication with a deterministic merge.

The reproduction's simulation kernel is single-threaded, but the
experiment loops around it — seed replication, rate sweeps, capacity
probes — are embarrassingly parallel.  ``repro.fleet`` fans those
independent runs across spawned worker processes and merges everything
back in task-key order, so the merged summary is byte-identical no
matter how many workers ran or in what order they finished.

This example replicates the steady serving scenario across four seed
substreams (minted via ``derive(seed, "fleet", task_key)``, so replicas
never share draws), runs the plan in-process serial, then twice on two
workers — the first call starts the process's warm pool, the second
reuses it — and proves the merge determinism by comparing digests.  It
finishes with the speculative parallel capacity search (the same warm
workers again), which must return *exactly* the serial bisection's
answer.  Nothing is shut down by hand: the idle workers go with the
interpreter.

Run:  python examples/fleet_sweep.py
"""

import dataclasses

from repro.bench.load import CAPACITY_SLO, capacity_variants, scenarios
from repro.fleet import (
    SeedReplication,
    document_digest,
    merge_load_results,
    run_plan,
)
from repro.load import find_capacity


def main() -> None:
    base = dataclasses.replace(scenarios()["steady"], duration=0.25)
    plan = SeedReplication(name="steady", base=base, replicas=4)

    print("plan: 4 seed replicas of the steady scenario")
    for task in plan.tasks():
        print(f"  {task.key}: seed {task.payload['scenario'].seed}")

    serial = run_plan(plan, jobs=1)
    merged_serial = merge_load_results(serial.outcomes, plan=plan.name)
    print(f"\nserial: {serial.wall_s:.1f}s wall")

    cold = run_plan(plan, jobs=2)
    pooled = run_plan(plan, jobs=2)
    merged_pooled = merge_load_results(pooled.outcomes, plan=plan.name)
    print(f"2 workers: {cold.wall_s:.1f}s wall starting the pool, "
          f"{pooled.wall_s:.1f}s on it warm")

    for key, summary in merged_serial["tasks"].items():
        print(f"  {key}: delivered {summary['delivered']} "
              f"p99 {summary['p99_us']:.0f} us")
    assert (document_digest(merged_serial)
            == document_digest(merged_pooled)), \
        "merged summaries must be byte-identical at any --jobs"
    print("merged summaries byte-identical at jobs=1 and jobs=2 "
          f"(sha256 {document_digest(merged_serial)[:12]}...)")

    # Speculative capacity search: probe several bisection rates
    # concurrently, keep only the ones the serial search would have
    # probed — the answer is exactly the serial answer.
    variant = dataclasses.replace(capacity_variants()["tuned-skip-poll"],
                                  duration=0.2)
    kwargs = dict(low=200.0, high=6000.0, tolerance=0.05, max_probes=6)
    reference = find_capacity(variant, CAPACITY_SLO, **kwargs)
    speculative = find_capacity(variant, CAPACITY_SLO, parallel=2,
                                **kwargs)
    print(f"\ncapacity (serial bisection):    "
          f"{reference.capacity:.1f} RSR/s "
          f"({len(reference.probes)} probes)")
    print(f"capacity (speculative, 2 wide): "
          f"{speculative.capacity:.1f} RSR/s")
    assert speculative.capacity == reference.capacity
    assert ([p.rate for p in speculative.probes]
            == [p.rate for p in reference.probes])
    print("speculative search reproduced the serial probe sequence "
          "and capacity exactly")


if __name__ == "__main__":
    main()
