"""Per-layer counters read through the repo's public reporting APIs.

In-process runtimes are collected with ``obs.watching_runtimes()`` and
summed from ``core.enquiry.report``; runtimes that lived in a fleet
worker are summed from the ``LoadResult`` each task sent back.
"""

from __future__ import annotations

import typing as _t

from repro.core import enquiry


class Counters:
    """Running totals over every runtime of one repetition."""

    def __init__(self) -> None:
        self.events = 0
        self.sim_s = 0.0
        self.msgs = 0
        self.bytes = 0
        self.dropped_msgs = 0
        self.poll_cycles = 0
        self.poll_fires = 0
        self.poll_messages = 0
        self.idle_ffwd = 0
        self.retries = 0
        self.failovers = 0
        self.rsrs = 0
        self.spans = 0
        self.dropped_spans = 0

    def _add_report(self, report: enquiry.EnquiryReport) -> None:
        self.sim_s += report.now
        for stats in report.transports.values():
            self.msgs += stats.messages_sent
            self.bytes += stats.bytes_sent
            self.dropped_msgs += stats.messages_dropped
        for poll in report.polling.values():
            self.poll_cycles += poll.cycles
            self.poll_fires += sum(poll.fires.values())
            self.poll_messages += sum(poll.messages.values())
            self.idle_ffwd += poll.idle_fast_forwards
        self.retries += report.health.retries
        self.failovers += report.health.failovers
        overhead = report.obs_overhead
        if overhead is not None:
            self.spans += _t.cast(int, overhead["spans_recorded"])
            self.dropped_spans += _t.cast(int, overhead["spans_dropped"])

    def add_runtime(self, nexus: _t.Any) -> None:
        self.events += nexus.sim.events_processed
        self.rsrs += nexus.tracer.count("nexus.rsrs_sent")
        self._add_report(enquiry.report(nexus))

    def add_result(self, result: _t.Any) -> None:
        """One fleet task's ``LoadResult``; its RSR count comes from the
        obs ledger, which ``run_scenario`` always keeps."""
        self.events += result.sim_events
        overhead = result.report.obs_overhead
        if overhead is not None:
            self.rsrs += overhead["rsrs_started"]
        self._add_report(result.report)

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Counts as counted; rates over the untraced ``wall_s``."""
        return {
            "simnet.events": self.events,
            "simnet.events_per_s": self.events / wall_s,
            "simnet.sim_s": self.sim_s,
            "transports.msgs": self.msgs,
            "transports.bytes": self.bytes,
            "transports.dropped_msgs": self.dropped_msgs,
            "core.poll_cycles": self.poll_cycles,
            "core.poll_fires": self.poll_fires,
            "core.poll_hit_frac": (self.poll_messages / self.poll_fires
                                   if self.poll_fires else 0.0),
            "core.idle_ffwd": self.idle_ffwd,
            "core.retries": self.retries,
            "core.failovers": self.failovers,
            "core.rsr_per_s": self.rsrs / wall_s,
            "obs.spans": self.spans,
            "obs.spans_per_s": self.spans / wall_s,
            "obs.dropped_spans": self.dropped_spans,
        }
