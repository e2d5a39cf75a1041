"""Baseline comparison: Nexus multimethod vs p4-style vs PVM-style.

Section 5 positions Nexus against systems where "the choice of method is
hard coded and cannot be extended or changed": p4 (two methods in one
process, both polled always) and PVM (a forwarding daemon for external
traffic).  This benchmark runs one mixed intra/inter-partition workload
over all three and checks the structural expectations:

* Nexus at ``skip_poll=1`` matches p4's cost (same architecture, no
  tuning applied);
* *tuned* Nexus beats p4 — p4 has no way to express "check TCP less
  often", which is exactly the paper's contribution;
* PVM's mandatory task→pvmd→pvmd→task relay is the slowest external
  path.
"""

from repro.baselines import run_mixed_workload
from repro.bench.baselines import Baselines


def test_baselines(run_once, bench_record):
    def drive():
        rows = {}
        rows["p4 (hard-coded, full polling)"] = run_mixed_workload("p4")
        rows["pvm (daemon relay)"] = run_mixed_workload("pvm")
        rows["nexus skip_poll=1"] = run_mixed_workload("nexus", skip_poll=1)
        for skip in (5, 10, 20, 50):
            rows[f"nexus skip_poll={skip}"] = run_mixed_workload(
                "nexus", skip_poll=skip)
        return rows

    rows = run_once(drive)
    result = Baselines(rows)
    bench_record.extend("baselines", result.metrics())
    print()
    print(result.render())

    p4 = rows["p4 (hard-coded, full polling)"].time_per_round
    pvm = rows["pvm (daemon relay)"].time_per_round
    untuned = rows["nexus skip_poll=1"].time_per_round
    tuned = min(result.time_per_round for label, result in rows.items()
                if label.startswith("nexus skip_poll=")
                and result.skip_poll > 1)

    # Same architecture, same cost: untuned Nexus within 5% of p4.
    assert abs(untuned - p4) / p4 < 0.05
    # The knob p4 lacks buys real time.
    assert tuned < p4 * 0.99
    # The mandatory relay is the slowest option for this traffic mix.
    assert pvm > p4
    assert pvm > tuned
