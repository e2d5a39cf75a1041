"""Runtime diagnostics report: where did the (virtual) time go?

:func:`runtime_report` assembles a plain-text report from a live
:class:`~repro.core.runtime.Nexus` — per-context polling behaviour
(cycles, per-method fires/time/hit-rates, skip settings), per-transport
traffic, and the runtime's registry counters — the operational
complement to the per-call enquiry API.  Used interactively and by the
examples; the format is stable enough to grep in tests.
"""

from __future__ import annotations

import typing as _t

from .units import format_bytes, format_time

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..core.runtime import Nexus


def _context_section(nexus: "Nexus") -> list[str]:
    from ..core.enquiry import _build_poll_report

    lines = ["contexts:"]
    for context in nexus.contexts.values():
        report = _build_poll_report(context)
        lines.append(
            f"  {context.name} (id {context.id}, host {context.host.name})")
        lines.append(
            f"    methods {context.export_table().methods}  "
            f"poll cycles {report.cycles}  "
            f"fast-forwards {report.idle_fast_forwards}  "
            f"rsrs in {context.rsrs_dispatched}")
        for method in sorted(report.fires):
            skip = report.skip.get(method, 1)
            hit_rate = report.hit_rates.get(method)
            lines.append(
                f"    {method:>8}: fired {report.fires[method]:>8} times, "
                f"{format_time(report.poll_time[method]):>10} polling, "
                f"{report.messages.get(method, 0):>6} msgs "
                f"(hit rate "
                f"{'n/a' if hit_rate is None else format(hit_rate, '.1%')}, "
                f"skip_poll {skip})")
        never_fired = sorted(m for m, rate in report.hit_rates.items()
                             if rate is None and m not in report.fires)
        if never_fired:
            lines.append(f"    never fired: {', '.join(never_fired)}")
    return lines


def _transport_section(nexus: "Nexus") -> list[str]:
    from ..core.enquiry import _build_transport_report

    lines = ["transports:"]
    for name, stats in _build_transport_report(nexus).items():
        if stats.messages_sent == 0 and stats.messages_dropped == 0:
            continue
        lines.append(
            f"  {name:>8}: {stats.messages_sent:>7} messages, "
            f"{format_bytes(stats.bytes_sent):>10} sent"
            + (f", {stats.messages_dropped} dropped "
               f"({format_bytes(stats.bytes_dropped)})"
               if stats.messages_dropped else ""))
    if len(lines) == 1:
        lines.append("  (no traffic)")
    return lines


def _observability_section(nexus: "Nexus") -> list[str]:
    """Phase breakdown of traced RSR lifecycles (only when observing)."""
    from ..core.enquiry import _build_latency_report, _build_phase_report

    obs = nexus.obs
    if not obs.enabled or not (obs.spans or obs.streaming):
        return []
    lines = ["observability:"]
    if obs.streaming:
        overhead = obs.overhead()
        lines.append(
            f"  streaming: {overhead['spans_recorded']} spans spooled "
            f"over {obs.rsrs_started} RSRs "
            f"({obs.rsrs_finished} delivered), "
            f"{overhead.get('spans_sampled_out', 0)} sampled out, "
            f"peak {obs.peak_spans} open spans, "
            f"{overhead.get('shards', 0)} shard(s)")
        sink = obs._sink if obs._sink is not None else obs._retired_sink
        if sink is not None:
            lines.append(
                f"  spool: {sink.bytes_written} bytes written, "
                f"{sink.wall_s * 1e3:.2f} ms wall in obs")
    else:
        lines.append(
            f"  {len(obs.spans)} spans over {obs.rsrs_started} RSRs "
            f"({obs.rsrs_finished} delivered), "
            f"peak log occupancy {obs.peak_spans}"
            + (f", {obs.dropped_spans} spans dropped at capacity"
               if obs.dropped_spans else ""))
    for method, stats in sorted(_build_latency_report(nexus).items()):
        lines.append(
            f"  end-to-end {method:>8}: n={stats.count:<6} "
            f"mean {stats.mean_us:8.1f} us  p95 {stats.p95_us:8.1f} us  "
            f"max {stats.max_us:8.1f} us")
    for (phase, lane), stats in sorted(_build_phase_report(nexus).items()):
        lines.append(
            f"  {phase:>11}/{lane:<8}: n={stats.count:<6} "
            f"mean {stats.mean_us:8.1f} us  p95 {stats.p95_us:8.1f} us")
    return lines


def hot_path_report(profile, top_n: int = 15) -> str:
    """Top-N sim-time hot paths of a :class:`repro.obs.perf.PerfProfile`.

    One row per (phase, lane, handler) attribution key, hottest self
    time first, with the share of total profiled self time — the
    terminal answer to "which part of the stack owns the virtual time?".
    """
    paths = profile.hot_paths()
    if not paths:
        return "(no traced spans to profile)"
    total = sum(path.self_s for path in paths) or 1.0
    from .records import ResultTable

    table = ResultTable(
        f"hot paths: top {min(top_n, len(paths))} of {len(paths)} "
        "(phase/lane [handler]) by self time",
        ["self ms", "cum ms", "spans", "self %"],
    )
    for path in paths[:top_n]:
        table.add(f"{path.phase}/{path.lane} [{path.handler}]",
                  path.self_s * 1e3, path.cum_s * 1e3, path.count,
                  100.0 * path.self_s / total)
    return table.render(precision=3)


def _timeline_section(nexus: "Nexus") -> list[str]:
    """Sparkline view of the windowed telemetry, when recorded."""
    from ..obs.timeline import (
        KEY_ALL, SERIES_DELIVERED, SERIES_ISSUED, SERIES_LATENCY)
    from .ascii_chart import sparkline

    timeline = nexus.obs.timeline
    if timeline is None:
        return []
    window_range = timeline.window_range()
    if window_range is None:
        return []
    lo, hi = window_range
    lines = [f"timeline ({timeline.interval * 1e3:.3g} ms windows, "
             f"{lo}..{hi}):"]
    rows: list[tuple[str, _t.Sequence[float | None]]] = [
        ("issued", timeline.counter_series(SERIES_ISSUED, KEY_ALL)),
        ("p99 us", timeline.quantile_series(SERIES_LATENCY, KEY_ALL,
                                            0.99)),
    ]
    delivered = timeline.counter_total_series(SERIES_DELIVERED,
                                              prefix="method=")
    rows.insert(1, ("delivered", delivered))
    for label, series in rows:
        measured = [value for value in series if value is not None]
        peak = f"peak {max(measured):.4g}" if measured else "no samples"
        lines.append(f"  {label:>9} |{sparkline(series)}| {peak}")
    return lines


def critical_path_report(paths, top_n: int = 5) -> str:
    """Top-N end-to-end critical paths of traced RSRs.

    One row per path (slowest first): end-to-end latency, wire hops,
    the handler it landed in, and the phase owning the largest share —
    followed by the summed per-phase attribution over the shown paths.
    """
    from ..obs.critpath import phase_attribution

    shown = list(paths[:top_n])
    if not shown:
        return "(no critical paths to report)"
    from .records import ResultTable

    table = ResultTable(
        f"critical paths: top {len(shown)} RSRs by end-to-end latency",
        ["latency us", "hops", "dominant us"],
    )
    for path in shown:
        phase_shares = path.phase_s
        dominant = max(phase_shares, key=lambda p: phase_shares[p])
        table.add(f"rsr {path.rsr} [{path.handler}] {dominant}",
                  path.latency_s * 1e6, path.wire_hops,
                  phase_shares[dominant] * 1e6)
    lines = [table.render(precision=1)]
    attribution = phase_attribution(shown)
    total = sum(attribution.values()) or 1.0
    shares = "  ".join(
        f"{phase} {share / total:.0%}"
        for phase, share in attribution.items())
    lines.append(f"phase attribution over shown paths: {shares}")
    return "\n".join(lines)


def _counters_section(nexus: "Nexus") -> list[str]:
    from ..obs.metrics import Counter

    lines = ["runtime counters:"]
    for name, labels, metric in nexus.obs.metrics.collect():
        if isinstance(metric, Counter) and metric.value:
            label = ",".join(f"{k}={v}" for k, v in labels)
            name += f"{{{label}}}" if label else ""
            lines.append(f"  {name}: {metric.value}")
    if len(lines) == 1:
        lines.append("  (none)")
    return lines


def runtime_report(nexus: "Nexus", *, include_counters: bool = True) -> str:
    """A multi-section plain-text report over the whole runtime."""
    lines = [
        f"=== nexus runtime report @ t={format_time(nexus.now)} "
        f"({nexus.sim.events_processed} events) ===",
    ]
    lines += _context_section(nexus)
    lines += _transport_section(nexus)
    lines += _observability_section(nexus)
    lines += _timeline_section(nexus)
    if include_counters:
        lines += _counters_section(nexus)
    return "\n".join(lines)
