"""Deterministic sim-time profiler over the recorded spans.

Where the span exports (:mod:`repro.obs.export`) show individual RSR
lifecycles, this module answers the aggregate question — *which (phase,
lane, handler) combinations own the virtual time?* — the way a sampling
profiler would, but computed exactly from the deterministic spans,
folded one RSR group at a time from whichever sink ran:

* **self time**: a span's duration minus the part covered by its child
  spans (interval union, so overlapping multicast children are not
  double-counted);
* **cumulative time**: the span's full duration;
* **attribution key**: ``(phase, lane, handler)``, the handler taken
  from the RSR's root ``issue`` span.

Two outputs:

* :meth:`PerfProfile.hot_paths` — ranked attribution rows, rendered as
  a top-N table by :func:`repro.util.report.hot_path_report`;
* :meth:`PerfProfile.collapsed_stacks` — ``frame;frame;frame value``
  lines (values are integer nanoseconds of self time) in the collapsed
  stack format understood by speedscope and ``flamegraph.pl``, with
  each stack rooted at ``rsr:<handler>`` and one frame per lifecycle
  phase on the causal path.

Everything is derived from virtual-time spans, so identical runs
produce byte-identical exports.
"""

from __future__ import annotations

import dataclasses
import operator
import typing as _t

from .spans import PHASE_ISSUE, Observability, Span


def _union_length(intervals: _t.Iterable[tuple[float, float]]) -> float:
    """Total length of the union of (lo, hi) intervals."""
    ordered = sorted(interval for interval in intervals
                     if interval[1] > interval[0])
    total = 0.0
    cursor = None
    for lo, hi in ordered:
        if cursor is None or lo > cursor:
            total += hi - lo
            cursor = hi
        elif hi > cursor:
            total += hi - cursor
            cursor = hi
    return total


def _frame(text: str) -> str:
    """A collapsed-stack-safe frame name (no separators or spaces)."""
    return text.replace(";", "_").replace(" ", "_")


@dataclasses.dataclass(frozen=True)
class HotPath:
    """Aggregated attribution for one (phase, lane, handler) key."""

    phase: str
    lane: str
    handler: str
    count: int
    self_s: float
    cum_s: float


class PerfProfile:
    """Per-(phase, lane, handler) self/cumulative time attribution."""

    def __init__(self) -> None:
        self._agg: dict[tuple[str, str, str], list[float]] = {}
        self._stacks: dict[tuple[str, ...], float] = {}
        self.spans_profiled = 0

    # -- construction --------------------------------------------------------

    @classmethod
    def from_runs(cls, runs: _t.Sequence[tuple[Observability, object]]
                  ) -> "PerfProfile":
        """Profile every runtime collected by :func:`repro.obs.collecting`."""
        profile = cls()
        for obs, _nexus in runs:
            profile.add_run(obs)
        return profile

    def add_run(self, obs: Observability) -> None:
        """Fold one runtime's spans into the profile, one RSR group at a
        time, from whichever sink ran (a log capped at capacity is
        profiled as far as it reaches)."""
        for _rsr, spans in obs.rsr_groups(allow_partial=True):
            self._add_rsr(spans)

    def _add_rsr(self, spans: _t.Sequence[Span]) -> None:
        children: dict[int, list[Span]] = {}
        # Frames from the RSR root down to each span: a parent opens
        # before its children, so in id order it is framed first.
        frames: dict[int | None, tuple[str, ...]] = {}
        for span in sorted(spans, key=operator.attrgetter("id")):
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
            frames[span.id] = frames.get(span.parent, ()) + (
                _frame(f"{span.phase}:{span.lane}"),)
        handler = next((str(span.attrs["handler"]) for span in spans
                        if span.phase == PHASE_ISSUE and span.attrs
                        and "handler" in span.attrs), "?")
        root = (_frame(f"rsr:{handler}"),)
        for span in spans:
            if span.end is None:
                continue
            duration = span.end - span.start
            covered = _union_length(
                (max(child.start, span.start),
                 min(child.end if child.end is not None else child.start,
                     span.end))
                for child in children.get(span.id, ()))
            self_time = max(duration - covered, 0.0)
            key = (span.phase, span.lane, handler)
            entry = self._agg.setdefault(key, [0.0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += self_time
            entry[2] += duration
            stack = root + frames[span.id]
            self._stacks[stack] = self._stacks.get(stack, 0.0) + self_time
            self.spans_profiled += 1

    # -- outputs -------------------------------------------------------------

    def hot_paths(self) -> list[HotPath]:
        """Attribution rows, hottest self time first (ties by key)."""
        rows = [
            HotPath(phase=phase, lane=lane, handler=handler,
                    count=int(entry[0]), self_s=entry[1], cum_s=entry[2])
            for (phase, lane, handler), entry in self._agg.items()
        ]
        rows.sort(key=lambda row: (-row.self_s,
                                   row.phase, row.lane, row.handler))
        return rows

    def collapsed_stacks(self) -> list[str]:
        """Collapsed-stack lines (sorted; integer nanoseconds of self
        time; zero-weight stacks elided)."""
        lines = []
        for stack in sorted(self._stacks):
            nanos = round(self._stacks[stack] * 1e9)
            if nanos > 0:
                lines.append(";".join(stack) + f" {nanos}")
        return lines

    def write_collapsed(self, path: str) -> None:
        """Write ``collapsed stack`` output for speedscope/flamegraph.pl."""
        with open(path, "w") as handle:
            for line in self.collapsed_stacks():
                handle.write(line)
                handle.write("\n")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<PerfProfile keys={len(self._agg)} "
                f"spans={self.spans_profiled}>")


__all__ = ["HotPath", "PerfProfile"]
