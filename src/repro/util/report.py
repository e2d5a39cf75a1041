"""Runtime diagnostics report: where did the (virtual) time go?

:func:`runtime_report` renders the :class:`~repro.core.enquiry.EnquiryReport`
of a live :class:`~repro.core.runtime.Nexus` as plain text — per-context
polling behaviour (cycles, per-method fires/time/hit-rates, skip
settings), per-transport traffic, traced latency and phase
distributions, the windowed timeline — plus the runtime's registry
counters.  Tests pin its whole output (``tests/golden/``).
"""

from __future__ import annotations

import typing as _t

from .units import format_bytes, format_time

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..core.enquiry import EnquiryReport
    from ..core.runtime import Nexus


def _context_section(nexus: "Nexus", report: "EnquiryReport") -> list[str]:
    lines = ["contexts:"]
    for context in nexus.contexts.values():
        poll = report.polling[context.id]
        lines.append(
            f"  {context.name} (id {context.id}, host {context.host.name})")
        lines.append(
            f"    methods {context.export_table().methods}  "
            f"poll cycles {poll.cycles}  "
            f"fast-forwards {poll.idle_fast_forwards}  "
            f"rsrs in {context.rsrs_dispatched}")
        for method in sorted(poll.fires):
            skip = poll.skip.get(method, 1)
            hit_rate = poll.hit_rates.get(method)
            lines.append(
                f"    {method:>8}: fired {poll.fires[method]:>8} times, "
                f"{format_time(poll.poll_time[method]):>10} polling, "
                f"{poll.messages.get(method, 0):>6} msgs "
                f"(hit rate "
                f"{'n/a' if hit_rate is None else format(hit_rate, '.1%')}, "
                f"skip_poll {skip})")
        never_fired = sorted(m for m, rate in poll.hit_rates.items()
                             if rate is None and m not in poll.fires)
        if never_fired:
            lines.append(f"    never fired: {', '.join(never_fired)}")
    return lines


def _transport_section(report: "EnquiryReport") -> list[str]:
    lines = ["transports:"]
    for name, stats in report.transports.items():
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


def _observability_section(nexus: "Nexus",
                           report: "EnquiryReport") -> list[str]:
    """Phase breakdown of traced RSR lifecycles (only when observing)."""
    overhead = report.obs_overhead
    if overhead is None or not (overhead["streaming"]
                                or overhead["spans_recorded"]):
        return []
    lines = ["observability:"]
    if overhead["streaming"]:
        lines.append(
            f"  streaming: {overhead['spans_recorded']} spans spooled "
            f"over {overhead['rsrs_started']} RSRs "
            f"({overhead['rsrs_finished']} delivered), "
            f"{overhead['spans_sampled_out']} sampled out, "
            f"peak {overhead['peak_spans']} open spans, "
            f"{overhead['shards']} shard(s)")
        # Wall-clock cost lives on the spool, not in obs.overhead().
        sink = nexus.obs.sink
        lines.append(
            f"  spool: {sink.bytes_written} bytes written, "
            f"{sink.wall_s * 1e3:.2f} ms wall in block writes and finalize")
    else:
        lines.append(
            f"  {overhead['spans_recorded']} spans over "
            f"{overhead['rsrs_started']} RSRs "
            f"({overhead['rsrs_finished']} delivered), "
            f"peak log occupancy {overhead['peak_spans']}"
            + (f", {overhead['spans_dropped']} spans dropped at capacity"
               if overhead["spans_dropped"] else ""))
    for method, stats in sorted(report.latency.items()):
        lines.append(
            f"  end-to-end {method:>8}: n={stats.count:<6} "
            f"mean {stats.mean_us:8.1f} us  p95 {stats.p95_us:8.1f} us  "
            f"max {stats.max_us:8.1f} us")
    for (phase, lane), stats in sorted(report.phases.items()):
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


def _timeline_section(report: "EnquiryReport") -> list[str]:
    """Sparkline view of the windowed telemetry, when recorded."""
    from .ascii_chart import sparkline

    timeline = _t.cast("dict[str, _t.Any] | None", report.timeline)
    if timeline is None or timeline["windows"] is None:
        return []
    windows = timeline["windows"]
    lines = [f"timeline ({timeline['interval_s'] * 1e3:.3g} ms windows, "
             f"{windows['lo']}..{windows['hi']}):"]
    for label, key in (("issued", "issued"), ("delivered", "delivered"),
                       ("p99 us", "p99_latency_us")):
        series = timeline[key]
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
    """A multi-section plain-text rendering of :func:`enquiry.report
    <repro.core.enquiry.report>` over the whole runtime."""
    from ..core.enquiry import report as enquiry_report

    report = enquiry_report(nexus)
    lines = [
        f"=== nexus runtime report @ t={format_time(nexus.now)} "
        f"({nexus.sim.events_processed} events) ===",
    ]
    lines += _context_section(nexus, report)
    lines += _transport_section(report)
    lines += _observability_section(nexus, report)
    lines += _timeline_section(report)
    if include_counters:
        lines += _counters_section(nexus)
    return "\n".join(lines)
