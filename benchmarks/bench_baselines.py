"""Baseline comparison: Nexus multimethod vs p4-style vs PVM-style.

Section 5 positions Nexus against systems where "the choice of method is
hard coded and cannot be extended or changed": p4 (two methods in one
process, both polled always) and PVM (a forwarding daemon for external
traffic).  This benchmark runs one mixed intra/inter-partition workload
over all three and checks the structural expectations
(:func:`repro.bench.baselines.check_baselines_shape`):

* Nexus at ``skip_poll=1`` matches p4's cost (same architecture, no
  tuning applied);
* *tuned* Nexus beats p4 — p4 has no way to express "check TCP less
  often", which is exactly the paper's contribution;
* PVM's mandatory task→pvmd→pvmd→task relay is the slowest external
  path.
"""

from repro.baselines import run_mixed_workload
from repro.bench.baselines import Baselines, check_baselines_shape


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
    check_baselines_shape(result)
