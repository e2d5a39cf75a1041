"""The parent's span-group builders, kept verbatim as a differential oracle.

``GraphBuilder.add_rsr`` and ``CritpathBuilder.add_rsr`` as they stood
at ``c8b70ed``, before each became one indexing pass over the group:
children lists per parent and a delivery list per wire span in the
graph, ``max(key=)`` for the leaf and a root-to-leaf second loop in the
critical path.  Nothing in the two method bodies has been edited.  The
classes subclass the production builders, so ``__init__`` and
``finish()`` are shared and only the fold of one group differs.

``test_builder_oracle.py`` feeds both the same generated span groups
and requires ``finish()`` to agree **bit for bit**.  Test-only; never
import it from ``src``.
"""

from __future__ import annotations

import heapq
import operator
import typing as _t

from repro.obs.critpath import CritpathBuilder
from repro.obs.graph import GraphBuilder
from repro.obs.spans import PHASE_POLL_DETECT, PHASE_WIRE, Span


class ReferenceGraphBuilder(GraphBuilder):
    def add_rsr(self, spans: _t.Sequence[Span]) -> None:
        """Fold one RSR's spans (or any self-contained span group —
        parent links must not point outside ``spans``).

        Each wire span is one transit from its parent's context to its
        first non-wire child's, or undelivered when it has no child.  A
        wire span whose children are all wire spans is a group send's
        serialisation: the fork children carry the per-member transits,
        so it is no edge itself.
        """
        if len(spans) > 1:
            spans = sorted(spans, key=operator.attrgetter("id"))
        by_id: dict[int, Span] = {}
        children: dict[int, list[Span]] = {}
        for span in spans:
            by_id[span.id] = span
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        ctx_key, nodes = self._ctx_key, self._nodes
        for span in spans:
            if span.phase != PHASE_WIRE:
                continue
            kids = children.get(span.id, ())
            delivery = [k for k in kids if k.phase != PHASE_WIRE]
            if not delivery and kids:
                continue
            src_ctx = (by_id[span.parent].ctx if span.parent in by_id
                       else span.ctx)
            nbytes = (0 if span.attrs is None
                      else int(_t.cast(int, span.attrs.get("nbytes", 0))))
            key = span.id * 2
            cur = ctx_key.get(src_ctx)
            if cur is None or key < cur:
                ctx_key[src_ctx] = key
            src = nodes.get(src_ctx)
            if src is None:
                src = nodes[src_ctx] = [0, 0, 0, 0, 0]
            if not delivery:
                src[4] += 1
                continue
            first = delivery[0]
            dst_ctx = first.ctx
            cur = ctx_key.get(dst_ctx)
            if cur is None or key + 1 < cur:
                ctx_key[dst_ctx] = key + 1
            dst = nodes.get(dst_ctx)
            if dst is None:
                dst = nodes[dst_ctx] = [0, 0, 0, 0, 0]
            edge = self._edges.get((src_ctx, dst_ctx, span.lane))
            if edge is None:
                edge = self._edges[(src_ctx, dst_ctx, span.lane)] = [
                    0, 0, 0, 0]
            edge[0] += 1
            edge[1] += nbytes
            if span.end is not None:
                edge[2] += int(round((span.end - span.start) * 1e9))
            if first.phase == PHASE_POLL_DETECT and first.end is not None:
                edge[3] += int(round((first.end - first.start) * 1e9))
            src[1] += 1
            src[3] += nbytes
            dst[0] += 1
            dst[2] += nbytes


class ReferenceCritpathBuilder(CritpathBuilder):
    def add_rsr(self, rsr: int, spans: _t.Sequence[Span]) -> None:
        """Fold one RSR's complete span group."""
        ctx_min = self._ctx_min
        for span in spans:
            cur = ctx_min.get(span.ctx)
            if cur is None or span.id < cur:
                ctx_min[span.ctx] = span.id
        by_id = {span.id: span for span in spans}
        finished = [span for span in spans if span.end is not None]
        if not finished:
            return
        leaf = max(finished, key=operator.attrgetter("end", "id"))
        chain: list[Span] = []
        cursor: Span | None = leaf
        while cursor is not None:
            chain.append(cursor)
            cursor = (by_id.get(cursor.parent)
                      if cursor.parent is not None else None)
        chain.reverse()
        steps: list[tuple[str, str, int, float, float]] = []
        for index, span in enumerate(chain):
            if index + 1 < len(chain):
                share = chain[index + 1].start - span.start
            else:
                share = _t.cast(float, span.end) - span.start
            steps.append((span.phase, span.lane, span.ctx,
                          span.start, share))
        root = chain[0]
        handler = ""
        if root.attrs is not None:
            handler = str(root.attrs.get("handler", ""))
        dropped = bool(leaf.attrs and leaf.attrs.get("dropped"))
        latency = _t.cast(float, leaf.end) - root.start
        entry = (latency, -rsr, (rsr, handler, dropped, tuple(steps)))
        if self.top_k is None:
            self._paths.append(entry)
        else:
            heapq.heappush(self._paths, entry)
            if len(self._paths) > self.top_k:
                heapq.heappop(self._paths)
