"""Plain-text renderings of the span products for the terminal.

:func:`hot_path_report` tables a :class:`~repro.obs.perf.PerfProfile`'s
hottest (phase, lane, handler) keys, and :func:`critical_path_report`
the slowest end-to-end RSR paths with their phase attribution.  The
bench CLI's ``--profile`` and the ``analysis`` artefact print them.
"""

from __future__ import annotations


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


