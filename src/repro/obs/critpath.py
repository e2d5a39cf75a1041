"""Per-RSR critical-path extraction over span parent/fork links.

Each traced RSR is a tree of spans (multicast forks and forwarding hops
included).  The *critical path* of one RSR is the root-to-leaf chain
ending at the latest-finishing span — the sequence of phases that
actually determined its end-to-end latency; everything off that chain
overlapped something slower.

Attribution is exact by construction: walking the path root → leaf,
each non-leaf step is charged ``next.start - this.start`` (the time the
RSR sat in this phase before the next one took over — lifecycle phases
are contiguous, so this is normally the span's own duration, and for
the long-lived ``issue`` root it is the slice before hand-off) and the
leaf is charged its full duration, so the step times sum exactly to the
end-to-end latency.  Summing steps by phase answers "where did the p99
RSR spend its time"; the ``wire`` steps carry per-link attribution
(which context, which method).

Context ids are renumbered densely by first appearance and paths sort
by (latency desc, rsr id), so extraction and the JSON export are
byte-deterministic across identical runs.
"""

from __future__ import annotations

import dataclasses
import heapq
import typing as _t

from ..util.document import DocumentError, Schema, write
from .spans import PHASE_WIRE, Observability, Span

CRITPATH_SCHEMA = "repro.obs.critpath"
CRITPATH_SCHEMA_VERSION = 1


class ParentCycleError(ValueError):
    """A span group whose ``parent`` links loop back on themselves, so
    no root can be reached from its leaf."""


@dataclasses.dataclass(frozen=True)
class PathStep:
    """One phase on a critical path, with its exact latency share."""

    phase: str
    lane: str
    rank: int           # dense context rank (deterministic)
    start_s: float
    share_s: float      # this step's contribution to end-to-end latency


@dataclasses.dataclass(frozen=True)
class CriticalPath:
    """The latency-determining chain of one RSR."""

    rsr: int
    handler: str
    latency_s: float
    dropped: bool       # the path ends at a dropped message
    steps: tuple[PathStep, ...]

    @property
    def phase_s(self) -> dict[str, float]:
        """Latency share summed by phase, in path order."""
        out: dict[str, float] = {}
        for step in self.steps:
            out[step.phase] = out.get(step.phase, 0.0) + step.share_s
        return out

    @property
    def wire_hops(self) -> int:
        return sum(1 for step in self.steps if step.phase == PHASE_WIRE)


class CritpathBuilder:
    """The critical-path algorithm: a fold over per-RSR span groups.

    :func:`extract_critical_paths` feeds it the groups of whichever sink
    ran and :func:`~repro.obs.stream.fold_stream` those of a spool
    directory, so the two cannot disagree.  It holds a bounded working
    set: one pending path per folded RSR (or a ``top_k``-sized heap)
    plus a per-context minimum span id, which canonicalises dense
    ranks — ordering contexts by their smallest span id is their order
    of first appearance, whatever order the RSR groups arrive in.
    """

    def __init__(self, *, top_k: int | None = None) -> None:
        self.top_k = top_k
        self._ctx_min: dict[int, int] = {}
        # Entries (latency_s, -rsr, payload); rsr ids are unique so the
        # payload never takes part in heap comparisons.
        self._paths: list[tuple] = []

    def add_rsr(self, rsr: int, spans: _t.Sequence[Span]) -> None:
        """Fold one RSR's complete span group.

        One pass over the group lowers the context minima, indexes the
        spans by id and keeps the leaf, the latest-ending span (the
        larger id on a tie).  One walk from the leaf to the root then
        charges each step as it goes: the leaf its own duration, every
        earlier step the time until the step after it started.  Neither
        makes a call per span.  An acyclic chain has fewer hops than the
        group has spans, so a walk that takes that many hops has met a
        cycle and raises :class:`ParentCycleError`.
        """
        ctx_min = self._ctx_min
        by_id: dict[int, Span] = {}
        leaf: Span | None = None
        leaf_end = leaf_id = 0.0
        bound = 0
        for span in spans:
            bound += 1
            ctx, span_id, end = span.ctx, span.id, span.end
            if ctx not in ctx_min or span_id < ctx_min[ctx]:
                ctx_min[ctx] = span_id
            by_id[span_id] = span
            if end is not None and (leaf is None or end > leaf_end or (
                    end == leaf_end and span_id > leaf_id)):
                leaf, leaf_end, leaf_id = span, end, span_id
        if leaf is None:
            return
        # Leaf to root; ``list += (step,)`` grows the list without a call.
        steps: list[tuple[str, str, int, float, float]] = []
        step, share = leaf, leaf_end - leaf.start
        while True:
            steps += ((step.phase, step.lane, step.ctx, step.start, share),)
            if step.parent not in by_id:
                break
            bound -= 1
            if not bound:
                raise ParentCycleError(
                    f"RSR {rsr}: span parent links form a cycle through "
                    f"span {step.parent}")
            parent = by_id[step.parent]
            step, share = parent, step.start - parent.start
        root = step
        handler = ""
        if root.attrs is not None:
            handler = str(root.attrs.get("handler", ""))
        dropped = bool(leaf.attrs and leaf.attrs.get("dropped"))
        latency = leaf_end - root.start
        entry = (latency, -rsr, (rsr, handler, dropped,
                                 tuple(reversed(steps))))
        if self.top_k is None:
            self._paths.append(entry)
        else:
            heapq.heappush(self._paths, entry)
            if len(self._paths) > self.top_k:
                heapq.heappop(self._paths)

    def finish(self) -> list[CriticalPath]:
        """Materialise the folded paths, slowest first."""
        order = sorted(self._ctx_min, key=lambda ctx: self._ctx_min[ctx])
        ranks = {ctx: rank for rank, ctx in enumerate(order)}
        paths = []
        for latency, _neg_rsr, (rsr, handler, dropped,
                                raw_steps) in self._paths:
            steps = tuple(
                PathStep(phase=phase, lane=lane, rank=ranks[ctx],
                         start_s=start_s, share_s=share_s)
                for phase, lane, ctx, start_s, share_s in raw_steps)
            paths.append(CriticalPath(
                rsr=rsr, handler=handler, latency_s=latency,
                dropped=dropped, steps=steps))
        paths.sort(key=lambda path: (-path.latency_s, path.rsr))
        return paths


def extract_critical_paths(obs: Observability, *,
                           top_k: int | None = None,
                           allow_partial: bool = False
                           ) -> list[CriticalPath]:
    """Critical paths of every traced RSR in ``obs``, slowest first.

    The spans are read from whichever sink ran.  ``top_k`` keeps only
    the K slowest.  RSRs with no finished span are skipped; a path
    ending at a dropped message is kept and flagged ``dropped``.  A run
    that dropped spans at capacity raises
    :class:`~repro.obs.spans.TraceIncompleteError` unless
    ``allow_partial``.
    """
    builder = CritpathBuilder(top_k=top_k)
    for rsr, spans in obs.rsr_groups(allow_partial=allow_partial):
        builder.add_rsr(rsr, spans)
    return builder.finish()


def phase_attribution(paths: _t.Sequence[CriticalPath]
                      ) -> dict[str, float]:
    """Total critical-path seconds per phase across ``paths`` — where
    end-to-end latency actually accumulates."""
    totals: dict[str, float] = {}
    for path in paths:
        for phase, share in path.phase_s.items():
            totals[phase] = totals.get(phase, 0.0) + share
    return dict(sorted(totals.items(), key=lambda kv: (-kv[1], kv[0])))


# -- export -------------------------------------------------------------------

def critpath_document(paths: _t.Sequence[CriticalPath], *,
                      meta: _t.Mapping[str, object] | None = None
                      ) -> dict[str, object]:
    """Critical paths as a JSON-ready, deterministic document."""
    return {
        "schema": CRITPATH_SCHEMA,
        "schema_version": CRITPATH_SCHEMA_VERSION,
        "paths": [
            {
                "rsr": path.rsr,
                "handler": path.handler,
                "latency_s": path.latency_s,
                "dropped": path.dropped,
                "wire_hops": path.wire_hops,
                "phase_s": path.phase_s,
                "steps": [{"phase": step.phase, "lane": step.lane,
                           "rank": step.rank, "start_s": step.start_s,
                           "share_s": step.share_s}
                          for step in path.steps],
            }
            for path in paths
        ],
        "phase_attribution_s": phase_attribution(paths),
        "meta": dict(meta) if meta else {},
    }


def write_critpaths(path: str, paths: _t.Sequence[CriticalPath], *,
                    meta: _t.Mapping[str, object] | None = None) -> None:
    write(path, critpath_document(paths, meta=meta))


def _validate(document: _t.Mapping[str, object],
              path: str | None = None) -> dict[str, object]:
    """Structural + invariant checks over a critical-path export."""
    paths = document.get("paths")
    if not isinstance(paths, list):
        raise DocumentError("paths section missing")
    for index, entry in enumerate(paths):
        if not isinstance(entry, dict):
            raise DocumentError(f"paths[{index}] is not an object")
        steps = entry.get("steps")
        latency = entry.get("latency_s")
        if not isinstance(steps, list) or not steps:
            raise DocumentError(f"paths[{index}] has no steps")
        if not isinstance(latency, (int, float)) or latency < 0:
            raise DocumentError(f"paths[{index}] latency_s invalid")
        shares = sum(_t.cast(float, _t.cast(dict, step)["share_s"])
                     for step in steps)
        if abs(shares - _t.cast(float, latency)) > 1e-9:
            raise DocumentError(f"paths[{index}] step shares sum to "
                                f"{shares!r}, latency is {latency!r}")
    if not isinstance(document.get("phase_attribution_s"), dict):
        raise DocumentError("phase_attribution_s section missing")
    return {"paths": len(paths),
            "steps": sum(len(_t.cast(dict, p)["steps"]) for p in paths)}


DOCUMENT = Schema(CRITPATH_SCHEMA, CRITPATH_SCHEMA_VERSION, _validate,
                  "critical paths")


__all__ = [
    "CRITPATH_SCHEMA",
    "CRITPATH_SCHEMA_VERSION",
    "CriticalPath",
    "CritpathBuilder",
    "DOCUMENT",
    "ParentCycleError",
    "PathStep",
    "critpath_document",
    "extract_critical_paths",
    "phase_attribution",
    "write_critpaths",
]
