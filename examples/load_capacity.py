#!/usr/bin/env python
"""Capacity planning: tuned polling vs the forwarding processor (§4.3).

The paper's Table 1 finding, restated as a serving-capacity question:
given the same remote-RPC workload and the same latency/goodput SLO,
how much offered load can each stack tuning sustain?  A bisection
search (:func:`repro.load.find_capacity`) probes deterministic load
scenarios until it brackets the highest SLO-compliant rate.

Tuned ``skip_poll`` decimates the TCP poll tax on every serving rank;
the forwarding processor concentrates TCP polling on one rank — but
that rank is an application rank too, so it pays the full tax *and*
relays everyone else's inter-partition traffic.  Tuned polling should
therefore sustain strictly more load.

Run:  python examples/load_capacity.py
"""

import dataclasses

from repro.bench.load import CAPACITY_SLO, TUNED_SKIP, capacity_variants
from repro.load import find_capacity


def main() -> None:
    variants = {name: dataclasses.replace(variant, duration=0.2)
                for name, variant in capacity_variants().items()}
    print("capacity search: remote-RPC serving workload, SLO = "
          f"p99 <= {CAPACITY_SLO.p99_latency_us / 1e3:.0f} ms, "
          f"goodput >= {CAPACITY_SLO.min_goodput_fraction:.0%}")

    capacities = {}
    for name in ("tuned-skip-poll", "forwarding"):
        print(f"\n{name}:")
        result = find_capacity(
            variants[name], CAPACITY_SLO, low=200.0, high=6000.0,
            tolerance=0.05, max_probes=6,
            on_probe=lambda probe: print(
                f"  probe {probe.rate:7.1f} RSR/s -> "
                f"{'pass' if probe.passed else 'FAIL'} "
                f"(p99 {probe.p99_us / 1e3:.1f} ms, "
                f"delivered {probe.delivered_rate:.1f}/s)"))
        capacities[name] = result.capacity
        print(f"  => capacity {result.capacity:.1f} RSR/s "
              f"({len(result.probes)} probes)")

    tuned = capacities["tuned-skip-poll"]
    forwarding = capacities["forwarding"]
    print(f"\ntuned skip_poll={TUNED_SKIP}: {tuned:.1f} RSR/s   "
          f"forwarding processor: {forwarding:.1f} RSR/s   "
          f"({tuned / forwarding:.1f}x)")
    assert tuned > forwarding, (
        "tuned polling must sustain more SLO-compliant load than the "
        "forwarding processor")
    print("tuned polling sustains strictly more SLO-compliant load — "
          "the Table 1 ordering, reproduced as capacity.")


if __name__ == "__main__":
    main()
