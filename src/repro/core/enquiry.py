"""Enquiry functions (Section 2.1).

"Both automatic and manual selection require access to information about
the availability and applicability of different communication methods and
about system state and configuration.  An implementation of multimethod
communication must provide this information via enquiry functions.
Enquiry functions should also enable programmers to evaluate the
effectiveness of automatic selection or to tune manual selections."

Everything here is read-only and side-effect free.

The one-stop entry point is :func:`report`: it returns an
:class:`EnquiryReport` aggregating per-transport traffic, per-context
polling behaviour, traced phase/latency distributions, and
failure-recovery health state.
"""

from __future__ import annotations

import dataclasses
import operator
import typing as _t

from ..simnet.link import LinkProfile
from ..transports.ipbase import IpTransport

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..simnet.node import Host
    from ..transports.base import Transport
    from .context import Context
    from .runtime import Nexus
    from .startpoint import Startpoint


def applicable_methods(context: "Context",
                       startpoint: "Startpoint") -> list[list[str]]:
    """Per link of ``startpoint``: the methods ``context`` could use.

    This answers "which entries of the received descriptor table would
    the automatic rule consider?" without committing to any of them.
    """
    registry = context.nexus.transports
    result: list[list[str]] = []
    for link in startpoint.links:
        remote_host = context.nexus.context_host(link.context_id)
        usable = []
        for descriptor in link.table:
            if descriptor.method not in registry:
                continue
            transport = registry.get(descriptor.method)
            if transport.applicable(context, descriptor, remote_host):
                usable.append(descriptor.method)
        result.append(usable)
    return result


def current_methods(startpoint: "Startpoint") -> list[str | None]:
    """The method currently selected on each link (None = not yet used)."""
    return startpoint.current_methods()


def method_profile(transport: "Transport", local: "Host",
                   remote: "Host") -> LinkProfile:
    """The effective wire profile a method would use between two hosts."""
    if isinstance(transport, IpTransport):
        return transport.profile_between(local, remote)
    costs = transport.costs
    return LinkProfile(name=transport.name, latency=costs.latency,
                       bandwidth=costs.bandwidth)


def link_profile(context: "Context", startpoint: "Startpoint",
                 link_index: int = 0) -> LinkProfile | None:
    """Effective wire profile of one link's current method, if selected."""
    link = startpoint.links[link_index]
    if link.comm is None:
        return None
    remote_host = context.nexus.context_host(link.context_id)
    return method_profile(link.comm.transport, context.host, remote_host)


def estimate_one_way(context: "Context", startpoint: "Startpoint",
                     nbytes: int, link_index: int = 0) -> float | None:
    """Back-of-envelope one-way time for ``nbytes`` on one link.

    Uses the selected method's profile plus fixed overheads; ``None``
    before a method has been selected.  Useful for tuning a manual
    selection and for verifying that automatic selection did something
    sensible.
    """
    profile = link_profile(context, startpoint, link_index)
    if profile is None:
        return None
    link = startpoint.links[link_index]
    assert link.comm is not None
    costs = link.comm.transport.costs
    return (costs.send_overhead + profile.latency
            + nbytes / profile.bandwidth + costs.recv_overhead)


# -- report types -------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class PollReport:
    """Summary of one context's polling behaviour.

    ``hit_rates`` maps every polled method to the fraction of its polls
    that found a message, or ``None`` for methods that never fired (no
    data — distinct from "polled and found nothing", which is 0.0).
    """

    context_id: int
    cycles: int
    fires: dict[str, int]
    poll_time: dict[str, float]
    messages: dict[str, int]
    hit_rates: dict[str, float | None]
    skip: dict[str, int]
    idle_fast_forwards: int


@dataclasses.dataclass(frozen=True)
class TransportStats:
    """Send/drop counters of one communication module."""

    messages_sent: int
    bytes_sent: int
    messages_dropped: int
    bytes_dropped: int


@dataclasses.dataclass(frozen=True)
class PhaseStats:
    """Distribution summary of one traced quantity (microseconds)."""

    count: int
    mean_us: float
    p50_us: float
    p95_us: float
    max_us: float
    #: Tail quantile used by SLO gating (bucket upper bound, like p50/p95).
    p99_us: float = 0.0

    @classmethod
    def from_histogram(cls, histogram) -> "PhaseStats | None":
        if histogram.count == 0:
            return None
        return cls(count=histogram.count,
                   mean_us=histogram.mean,
                   p50_us=histogram.quantile(0.5),
                   p95_us=histogram.quantile(0.95),
                   max_us=histogram.max_value,
                   p99_us=histogram.quantile(0.99))


@dataclasses.dataclass(frozen=True)
class HealthReport:
    """Failure-recovery state across the runtime.

    ``down`` lists every non-UP (context, remote, method) health entry;
    ``events`` is the merged transition log
    ``(sim_time, context_id, remote_context_id, method, transition)``
    with transitions ``down``/``probe``/``probe_failed``/``up``.
    """

    retries: int
    failovers: int
    probes: int
    down: tuple[dict[str, object], ...]
    events: tuple[tuple[float, int, int, str, str], ...]


@dataclasses.dataclass(frozen=True)
class EnquiryReport:
    """Everything the enquiry API knows about one runtime, in one value.

    ``phases`` is keyed by ``(phase, lane)``; ``polling`` by context id;
    ``latency``/``poll_batches`` by method.  The traced sections are
    empty unless the runtime observes (``Nexus(observe=True)``).
    """

    now: float
    transports: dict[str, TransportStats]
    polling: dict[int, PollReport]
    phases: dict[tuple[str, str], PhaseStats]
    latency: dict[str, PhaseStats]
    poll_batches: dict[str, PhaseStats]
    health: HealthReport
    #: Optional SLO verdict attached by :mod:`repro.load.slo` (plain
    #: dict; ``None`` when no SLO was evaluated).  Core stays ignorant
    #: of the load tier — this is just a carried annotation.
    slo: dict[str, object] | None = None
    #: Windowed-telemetry summary (per-window throughput and latency;
    #: ``None`` when the runtime recorded no timeline).  Empty windows
    #: carry ``None`` entries — n/a, never a measured 0.
    timeline: dict[str, object] | None = None
    #: What observing itself cost: span/RSR counters, capacity drops,
    #: peak span-log (or open-span, when streaming) occupancy, and the
    #: spool's lossiness ledger for streamed runs.  Deterministic —
    #: wall-clock spent in the spool lives on the spool, not here.
    obs_overhead: dict[str, object] | None = None

    def with_slo(self, verdict: dict[str, object]) -> "EnquiryReport":
        """A copy of this report carrying an SLO verdict section."""
        return dataclasses.replace(self, slo=verdict)


# -- internal builders (shim- and warning-free) -------------------------------

def _build_poll_report(context: "Context") -> PollReport:
    stats = context.poll_manager.stats
    polled = list(context.poll_manager.methods)
    polled += [m for m in stats.fires if m not in polled]
    return PollReport(
        context_id=context.id,
        cycles=stats.cycles,
        fires=dict(stats.fires),
        poll_time=dict(stats.poll_time),
        messages=dict(stats.messages),
        hit_rates={m: stats.hit_rate(m) for m in polled},
        skip={m: context.poll_manager.get_skip(m)
              for m in context.poll_manager.methods},
        idle_fast_forwards=stats.idle_fast_forwards,
    )


def _build_transport_report(nexus: "Nexus") -> dict[str, TransportStats]:
    report = {}
    for name in nexus.transports.names():
        report[name] = TransportStats(*nexus.transports.get(name).traffic())
    return report


#: Label keys of the enquiry sections folded from histograms: one key
#: keys a section by its value, two by their tuple.
_PHASE_LANE = operator.itemgetter("phase", "lane")
_METHOD = operator.itemgetter("method")


def _histogram_section(nexus: "Nexus", name: str,
                       key: _t.Callable[[dict], _t.Any]) -> dict:
    """:class:`PhaseStats` of each non-empty series of histogram ``name``,
    keyed by ``key`` applied to the series' labels."""
    report: dict = {}
    for _name, labels, metric in nexus.obs.metrics.collect(name):
        stats = PhaseStats.from_histogram(metric)
        if stats is not None:
            report[key(dict(labels))] = stats
    return report


def _build_health_report(nexus: "Nexus") -> HealthReport:
    metrics = nexus.obs.metrics
    down: list[dict[str, object]] = []
    events: list[tuple[float, int, int, str, str]] = []
    for context in nexus.contexts.values():
        for entry in context.health.snapshot():
            down.append({"context": context.id, **entry})
        for (when, remote, method, transition) in context.health.events:
            events.append((when, context.id, remote, method, transition))
    events.sort(key=lambda e: (e[0], e[1], e[2], e[3]))
    return HealthReport(
        retries=metrics.count("nexus.rsr_retries"),
        failovers=metrics.count("nexus.rsr_failovers"),
        probes=metrics.count("nexus.health_probes"),
        down=tuple(down),
        events=tuple(events),
    )


def _build_timeline_report(nexus: "Nexus") -> dict[str, object] | None:
    """Per-window throughput/latency summary of an attached timeline.

    Windows in which no RSR finished yield ``None`` latency entries —
    n/a, following the ``PollStats.hit_rate`` convention."""
    from ..obs.timeline import KEY_ALL, SERIES_DELIVERED, SERIES_DROPPED, \
        SERIES_ISSUED, SERIES_LATENCY

    timeline = nexus.obs.timeline
    if timeline is None:
        return None
    window_range = timeline.window_range()
    if window_range is None:
        return {"interval_s": timeline.interval, "windows": None}
    lo, hi = window_range
    return {
        "interval_s": timeline.interval,
        "windows": {"lo": lo, "hi": hi},
        "issued": timeline.counter_series(
            SERIES_ISSUED, KEY_ALL, lo=lo, hi=hi),
        "delivered": timeline.counter_total_series(
            SERIES_DELIVERED, prefix="method=", lo=lo, hi=hi),
        "dropped": timeline.counter_total_series(
            SERIES_DROPPED, prefix="method=", lo=lo, hi=hi),
        "p99_latency_us": timeline.quantile_series(
            SERIES_LATENCY, KEY_ALL, 0.99, lo=lo, hi=hi),
        "mean_latency_us": timeline.mean_series(
            SERIES_LATENCY, KEY_ALL, lo=lo, hi=hi),
    }


def _build_obs_overhead(nexus: "Nexus") -> dict[str, object] | None:
    """Self-metering: what the observability layer itself did."""
    obs = nexus.obs
    if not obs.enabled:
        return None
    return obs.overhead()


def report(nexus: "Nexus") -> EnquiryReport:
    """The one-stop enquiry aggregate over a whole runtime.

    The span products — communication graph, critical paths, hot-path
    profile — are :mod:`repro.obs`'s (``extract_graph``,
    ``extract_critical_paths``, ``PerfProfile``), read from whichever
    sink the run used.
    """
    return EnquiryReport(
        now=nexus.sim.now,
        transports=_build_transport_report(nexus),
        polling={context.id: _build_poll_report(context)
                 for context in nexus.contexts.values()},
        phases=_histogram_section(nexus, "rsr_phase_us", _PHASE_LANE),
        latency=_histogram_section(nexus, "rsr_latency_us", _METHOD),
        poll_batches=_histogram_section(nexus, "poll_batch", _METHOD),
        health=_build_health_report(nexus),
        timeline=_build_timeline_report(nexus),
        obs_overhead=_build_obs_overhead(nexus),
    )


def health_report(nexus: "Nexus") -> HealthReport:
    """Just the failure-recovery section of :func:`report`."""
    return _build_health_report(nexus)
