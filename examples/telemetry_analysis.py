#!/usr/bin/env python
"""Windowed telemetry, the communication graph, and critical paths.

A chaos load run (flaky inter-partition TCP with UDP standing by as
the failover method) demonstrates why aggregates are not enough: the
whole-run p99 stays inside its budget while every window inside the
fault arc blows the per-window budget.  The windowed verdict records
those violations, the empty (n/a) drain windows, and the recovery time
— sim-time from the fault clearing back to an in-budget window.

A second run through the §4.3 forwarding processor feeds the other two
analysis surfaces: the weighted communication graph (who talks to whom,
over which method, across which partition cut) and per-RSR critical
paths attributing end-to-end latency to lifecycle phases.

Run:  python examples/telemetry_analysis.py
"""

from repro.bench.analysis import (
    analysis_bench,
    chaos_scenario,
    chaos_slo,
)
from repro.obs.timeline import KEY_ALL, SERIES_ISSUED, SERIES_LATENCY
from repro.util.ascii_chart import sparkline


def main() -> None:
    scenario = chaos_scenario()
    slo = chaos_slo()
    print(f"chaos scenario: {scenario.name}, "
          f"{scenario.duration * 1e3:.0f} ms offered window carved into "
          f"{scenario.timeline_windows} timeline windows")

    bench = analysis_bench()
    result = bench.chaos_result
    timeline = result.timeline
    assert timeline is not None

    for when, action, detail in result.fault_log:
        print(f"  t={when * 1e3:5.1f} ms  {action:>11}  {detail}")

    issued = timeline.counter_series(SERIES_ISSUED, KEY_ALL)
    p99s = timeline.quantile_series(SERIES_LATENCY, KEY_ALL, 0.99)
    print(f"\n  issued |{sparkline(issued)}|")
    print(f"  p99 us |{sparkline(p99s)}|  (blank = no samples, n/a)")

    verdict = bench.chaos_verdict
    windowed = verdict.windowed
    assert windowed is not None
    print(f"\naggregate verdict: "
          f"{'PASS' if verdict.passed else 'FAIL'} — failover to UDP "
          "rides out the flaky TCP window")
    print(f"windowed verdict: {windowed.summary()}")
    print(f"  in-window violations the aggregate missed: "
          f"{list(windowed.violations)}")
    assert windowed.recovery_time_s is not None
    print(f"  recovery after clear @ {windowed.fault_clear_s * 1e3:.0f} "
          f"ms: {windowed.recovery_time_s * 1e3:.1f} ms back to "
          f"p99 <= {slo.window_p99_latency_us / 1e3:.1f} ms windows")

    print("\ncommunication graph of the forwarding run:")
    for edge in bench.graph.edge_list():
        print(f"  {edge.src} -> {edge.dst} over {edge.method:>4}: "
              f"{edge.messages} msgs, {edge.bytes} B")
    cut = bench.partition_costs.cut_fraction_bytes
    print(f"  partition cut carries {cut:.0%} of the bytes")

    top = bench.paths[0]
    print(f"\nslowest critical path (rsr {top.rsr}, "
          f"{top.latency_s * 1e6:.1f} us end-to-end, "
          f"{top.wire_hops} wire hops):")
    for step in top.steps:
        print(f"  {step.phase:>11}/{step.lane:<6} "
              f"{step.share_s * 1e6:8.1f} us")

    # The exported documents validate against the repo's own contract.
    from repro.obs.timeline import timeline_document
    from repro.util.document import check

    _schema, summary = check(timeline_document(timeline))
    print(f"\ntimeline export validates: "
          f"{summary['histogram_samples']} samples across "
          f"{summary['histogram_series']} histogram series")


if __name__ == "__main__":
    main()
