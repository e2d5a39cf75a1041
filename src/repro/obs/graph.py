"""Weighted communication-graph extraction from span traces.

ROADMAP item 2 needs the application's communication structure as data:
which (rank, component) pairs talk, how much, over which method.  This
module recovers exactly that from the span substrate — every delivered
message leaves a ``wire`` span whose parent sits at the sending context
and whose first non-wire child (``poll_detect``/``dispatch``) sits at
the receiving context, so the edge list falls out of the parent links:

* **nodes** are contexts, densely renumbered to ranks by first
  appearance in the span log (raw context ids are process-global and
  would break byte-determinism), labelled with component and host names
  when a runtime is supplied;
* **edges** are (src rank, dst rank, method) with message count, bytes
  (the wire span's ``nbytes`` attribute), total wire transit sim-time,
  and total detection sim-time.

Multicast group sends appear as one edge per member (the fork children
carry the per-member wire spans; the group's serialisation span, whose
children are all wire spans, contributes no edge itself).  Forwarding
appears as per-hop edges through the forwarder.  Wire spans with no
delivery child — dropped or still in flight at snapshot time — are
counted per source node as ``undelivered``, never silently discarded.

Exports follow the house rules: sorted-key JSON documents and a
Graphviz DOT rendering, both byte-identical across identical runs.
:func:`evaluate_partition` is the seed of the placement planner: given
an assignment of ranks to partitions it splits the traffic into
intra/cross-partition shares and reports the cut cost.
"""

from __future__ import annotations

import dataclasses
import operator
import typing as _t

from ..util.document import DocumentError, Schema, write
from .spans import PHASE_POLL_DETECT, PHASE_WIRE, Observability, Span

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..core.runtime import Nexus

GRAPH_SCHEMA = "repro.obs.graph"
GRAPH_SCHEMA_VERSION = 1


@dataclasses.dataclass
class GraphNode:
    """One communicating context, identified by its dense rank."""

    rank: int
    component: str
    host: str
    messages_in: int = 0
    messages_out: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    #: Wire spans leaving this node that never reached a delivery phase
    #: (dropped by a fault, or still in flight when the log was cut).
    undelivered: int = 0


@dataclasses.dataclass
class GraphEdge:
    """Directed traffic between two ranks over one transport method."""

    src: int
    dst: int
    method: str
    messages: int = 0
    bytes: int = 0
    #: Total sim-time spent in physical transit on this edge.
    wire_s: float = 0.0
    #: Total sim-time from arrival to poll pickup on this edge.
    detect_s: float = 0.0


class CommGraph:
    """The extracted weighted communication graph.

    ``nodes`` is keyed by rank; ``edges`` by ``(src, dst, method)``.
    """

    def __init__(self) -> None:
        self.nodes: dict[int, GraphNode] = {}
        self.edges: dict[tuple[int, int, str], GraphEdge] = {}
        #: Spans the source log discarded at capacity; nonzero means the
        #: graph was extracted with ``allow_partial=True`` and may be
        #: missing edges (surfaced in the exported document).
        self.dropped_spans = 0

    def edge_list(self) -> list[GraphEdge]:
        """Edges in deterministic (src, dst, method) order."""
        return [self.edges[key] for key in sorted(self.edges)]

    def node_list(self) -> list[GraphNode]:
        return [self.nodes[rank] for rank in sorted(self.nodes)]

    @property
    def total_messages(self) -> int:
        return sum(edge.messages for edge in self.edges.values())

    @property
    def total_bytes(self) -> int:
        return sum(edge.bytes for edge in self.edges.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<CommGraph nodes={len(self.nodes)} "
                f"edges={len(self.edges)} msgs={self.total_messages}>")


class GraphBuilder:
    """Incremental comm-graph fold, one bounded RSR span group at a time.

    :func:`extract_graph` feeds it the groups of whichever sink ran and
    :func:`~repro.obs.stream.fold_stream` those of a spool directory.
    Groups in any order produce the identical graph, because every
    accumulator is order-free: edge sums are integers (wire/detect times
    accumulate in integer nanoseconds, converted once at :meth:`finish`)
    and ranks come from a canonical per-context key — the minimum over
    ``wire_span_id * 2 + role`` (role 0 source, 1 destination) — which
    reproduces the first-appearance order of an id-ordered span log.
    """

    def __init__(self) -> None:
        # ctx -> canonical rank key (min wire_span_id * 2 + role).
        self._ctx_key: dict[int, int] = {}
        # ctx -> [messages_in, messages_out, bytes_in, bytes_out,
        #         undelivered]
        self._nodes: dict[int, list] = {}
        # (src_ctx, dst_ctx, method) -> [messages, bytes, wire_ns,
        #                                detect_ns]
        self._edges: dict[tuple[int, int, str], list] = {}
        self.dropped_spans = 0

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
        # One pass records, per parent id, its first non-wire child and
        # whether it has a wire child: all that decides a wire span's
        # fate.  ``list += (span,)`` grows a list without a call.
        by_id: dict[int, Span] = {}
        delivery: dict[int, Span] = {}
        forked: dict[int, bool] = {}
        wires: list[Span] = []
        for span in spans:
            by_id[span.id] = span
            parent = span.parent
            if span.phase == PHASE_WIRE:
                wires += (span,)
                if parent is not None:
                    forked[parent] = True
            elif parent is not None and parent not in delivery:
                delivery[parent] = span
        ctx_key, nodes, edges = self._ctx_key, self._nodes, self._edges
        for span in wires:
            span_id = span.id
            if span_id in delivery:
                first: Span | None = delivery[span_id]
            elif span_id in forked:
                continue
            else:
                first = None
            parent = span.parent
            src_ctx = by_id[parent].ctx if parent in by_id else span.ctx
            attrs = span.attrs
            nbytes = (int(attrs["nbytes"])
                      if attrs is not None and "nbytes" in attrs else 0)
            key = span_id * 2
            if src_ctx not in ctx_key or key < ctx_key[src_ctx]:
                ctx_key[src_ctx] = key
            if src_ctx in nodes:
                src = nodes[src_ctx]
            else:
                src = nodes[src_ctx] = [0, 0, 0, 0, 0]
            if first is None:
                src[4] += 1
                continue
            dst_ctx = first.ctx
            if dst_ctx not in ctx_key or key + 1 < ctx_key[dst_ctx]:
                ctx_key[dst_ctx] = key + 1
            if dst_ctx in nodes:
                dst = nodes[dst_ctx]
            else:
                dst = nodes[dst_ctx] = [0, 0, 0, 0, 0]
            edge_key = (src_ctx, dst_ctx, span.lane)
            if edge_key in edges:
                edge = edges[edge_key]
            else:
                edge = edges[edge_key] = [0, 0, 0, 0]
            edge[0] += 1
            edge[1] += nbytes
            if span.end is not None:
                edge[2] += round((span.end - span.start) * 1e9)
            if first.phase == PHASE_POLL_DETECT and first.end is not None:
                edge[3] += round((first.end - first.start) * 1e9)
            src[1] += 1
            src[3] += nbytes
            dst[0] += 1
            dst[2] += nbytes

    def finish(self, *, names: _t.Mapping[int, tuple[str, str]] | None = None
               ) -> CommGraph:
        """Materialise the folded graph with dense canonical ranks."""
        graph = CommGraph()
        graph.dropped_spans = self.dropped_spans
        names = names or {}
        order = sorted(self._ctx_key, key=lambda ctx: self._ctx_key[ctx])
        ranks: dict[int, int] = {}
        for rank, ctx in enumerate(order):
            ranks[ctx] = rank
            component, host = names.get(ctx, (f"ctx{rank}", "?"))
            m_in, m_out, b_in, b_out, undelivered = self._nodes[ctx]
            graph.nodes[rank] = GraphNode(
                rank=rank, component=component, host=host,
                messages_in=m_in, messages_out=m_out,
                bytes_in=b_in, bytes_out=b_out, undelivered=undelivered)
        for (src_ctx, dst_ctx, method), agg in self._edges.items():
            key = (ranks[src_ctx], ranks[dst_ctx], method)
            graph.edges[key] = GraphEdge(
                src=key[0], dst=key[1], method=method,
                messages=agg[0], bytes=agg[1],
                wire_s=agg[2] / 1e9, detect_s=agg[3] / 1e9)
        return graph


def extract_graph(obs: Observability, *, nexus: "Nexus | None" = None,
                  allow_partial: bool = False) -> CommGraph:
    """Extract the communication graph from ``obs``'s spans, read from
    whichever sink ran (a spooled run gives the in-memory run's graph).

    Passing ``nexus`` labels nodes with context/host names (otherwise
    components render as ``ctx<rank>`` / host ``?``).  A run that
    recorded capacity drops raises
    :class:`~repro.obs.spans.TraceIncompleteError` unless
    ``allow_partial=True``; the graph then carries the drop count in
    :attr:`CommGraph.dropped_spans`.
    """
    builder = GraphBuilder()
    for _rsr, spans in obs.rsr_groups(allow_partial=allow_partial):
        builder.add_rsr(spans)
    builder.dropped_spans = obs.dropped_spans
    names: dict[int, tuple[str, str]] = {}
    if nexus is not None:
        names = {context.id: (context.name, context.host.name)
                 for context in nexus.contexts.values()}
    return builder.finish(names=names)


# -- partition cost -----------------------------------------------------------

@dataclasses.dataclass
class PartitionCosts:
    """:func:`evaluate_partition`'s result."""

    partitions: list[str]
    intra: dict[str, float]
    cross: dict[str, float]
    cut_fraction_bytes: float | None
    cross_messages_per_method: dict[str, int]
    #: Cut bytes split by transport method (the planner's per-link view).
    cross_bytes_per_method: dict[str, int]
    #: Max partition traffic weight over the mean — 1.0 is perfectly
    #: balanced; ``None`` when the assignment is empty or weightless.
    imbalance: float | None


def evaluate_partition(graph: CommGraph,
                       assignment: _t.Mapping[int, str]
                       ) -> PartitionCosts:
    """Split the graph's traffic by a rank → partition assignment.

    The cost summary the placement planner minimises: cross-partition
    messages/bytes/wire time versus intra-partition, the cut fraction
    and per-method cut shares, plus the normalized traffic imbalance of
    the parts.  Ranks missing from ``assignment`` land in partition
    ``"?"``.
    """
    intra = {"messages": 0, "bytes": 0, "wire_s": 0.0}
    cross = {"messages": 0, "bytes": 0, "wire_s": 0.0}
    per_method_cross: dict[str, int] = {}
    per_method_cross_bytes: dict[str, int] = {}
    for edge in graph.edge_list():
        side = (intra if assignment.get(edge.src, "?")
                == assignment.get(edge.dst, "?") else cross)
        side["messages"] += edge.messages
        side["bytes"] += edge.bytes
        side["wire_s"] += edge.wire_s
        if side is cross:
            per_method_cross[edge.method] = (
                per_method_cross.get(edge.method, 0) + edge.messages)
            per_method_cross_bytes[edge.method] = (
                per_method_cross_bytes.get(edge.method, 0) + edge.bytes)
    total_bytes = intra["bytes"] + cross["bytes"]
    part_weight: dict[str, float] = {}
    for rank, node in graph.nodes.items():
        label = assignment.get(rank, "?")
        part_weight[label] = (part_weight.get(label, 0.0)
                              + node.bytes_in + node.bytes_out)
    imbalance: float | None = None
    if part_weight and sum(part_weight.values()) > 0:
        mean = sum(part_weight.values()) / len(part_weight)
        imbalance = max(part_weight.values()) / mean
    return PartitionCosts(
        partitions=sorted(set(assignment.values())),
        intra=intra,
        cross=cross,
        cut_fraction_bytes=(cross["bytes"] / total_bytes
                            if total_bytes else None),
        cross_messages_per_method=dict(sorted(per_method_cross.items())),
        cross_bytes_per_method=dict(sorted(
            per_method_cross_bytes.items())),
        imbalance=imbalance,
    )


# -- export -------------------------------------------------------------------

def graph_document(graph: CommGraph, *,
                   meta: _t.Mapping[str, object] | None = None
                   ) -> dict[str, object]:
    """The graph as a JSON-ready, deterministic document."""
    document: dict[str, object] = {
        "schema": GRAPH_SCHEMA,
        "schema_version": GRAPH_SCHEMA_VERSION,
        "nodes": [{"rank": node.rank, "component": node.component,
                   "host": node.host, "messages_in": node.messages_in,
                   "messages_out": node.messages_out,
                   "bytes_in": node.bytes_in, "bytes_out": node.bytes_out,
                   "undelivered": node.undelivered}
                  for node in graph.node_list()],
        "edges": [{"src": edge.src, "dst": edge.dst, "method": edge.method,
                   "messages": edge.messages, "bytes": edge.bytes,
                   "wire_s": edge.wire_s, "detect_s": edge.detect_s}
                  for edge in graph.edge_list()],
        "total_messages": graph.total_messages,
        "total_bytes": graph.total_bytes,
        "meta": dict(meta) if meta else {},
    }
    if graph.dropped_spans:
        # Loud annotation: this graph was built from a lossy span log.
        document["dropped_spans"] = graph.dropped_spans
    return document


def write_graph(path: str, graph: CommGraph, *,
                meta: _t.Mapping[str, object] | None = None) -> None:
    write(path, graph_document(graph, meta=meta))


def dot_graph(graph: CommGraph, *, title: str = "commgraph") -> str:
    """Graphviz DOT rendering: one cluster per host, edges labelled
    ``method: messages / bytes`` with pen width scaled by bytes."""
    lines = [f'digraph "{title}" {{',
             "  rankdir=LR;",
             '  node [shape=box, fontname="monospace"];']
    hosts: dict[str, list[GraphNode]] = {}
    for node in graph.node_list():
        hosts.setdefault(node.host, []).append(node)
    for index, host in enumerate(sorted(hosts)):
        lines.append(f'  subgraph "cluster_{index}" {{')
        lines.append(f'    label="{host}";')
        for node in hosts[host]:
            extra = (f"\\n!{node.undelivered} undelivered"
                     if node.undelivered else "")
            lines.append(
                f'    n{node.rank} [label="{node.component}\\n'
                f'in {node.messages_in} out {node.messages_out}{extra}"];')
        lines.append("  }")
    max_bytes = max((edge.bytes for edge in graph.edges.values()),
                    default=0)
    for edge in graph.edge_list():
        width = 1.0 + (3.0 * edge.bytes / max_bytes if max_bytes else 0.0)
        lines.append(
            f'  n{edge.src} -> n{edge.dst} '
            f'[label="{edge.method}: {edge.messages} msg / '
            f'{edge.bytes} B", penwidth={width:.2f}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_dot(path: str, graph: CommGraph, *,
              title: str = "commgraph") -> None:
    with open(path, "w") as handle:
        handle.write(dot_graph(graph, title=title))


def _validate(document: _t.Mapping[str, object],
              path: str | None = None) -> dict[str, object]:
    """Structural + invariant checks over a communication-graph export."""
    nodes = document.get("nodes")
    edges = document.get("edges")
    if not isinstance(nodes, list) or not isinstance(edges, list):
        raise DocumentError("nodes/edges sections missing")
    ranks = set()
    for node in nodes:
        if not isinstance(node, dict) or not isinstance(
                node.get("rank"), int):
            raise DocumentError("node lacks an integer rank")
        ranks.add(node["rank"])
    messages = bytes_total = 0
    for index, edge in enumerate(edges):
        if not isinstance(edge, dict):
            raise DocumentError(f"edges[{index}] is not an object")
        for field in ("src", "dst", "method", "messages", "bytes"):
            if field not in edge:
                raise DocumentError(f"edges[{index}] missing {field!r}")
        if edge["src"] not in ranks or edge["dst"] not in ranks:
            raise DocumentError(f"edges[{index}] references an unknown rank")
        messages += _t.cast(int, edge["messages"])
        bytes_total += _t.cast(int, edge["bytes"])
    if messages != document.get("total_messages"):
        raise DocumentError("edge messages do not sum to total_messages")
    if bytes_total != document.get("total_bytes"):
        raise DocumentError("edge bytes do not sum to total_bytes")
    # Per-node in/out totals must agree with the edge list.
    inbound: dict[int, int] = {rank: 0 for rank in ranks}
    outbound: dict[int, int] = {rank: 0 for rank in ranks}
    for edge in edges:
        outbound[_t.cast(int, edge["src"])] += _t.cast(int,
                                                       edge["messages"])
        inbound[_t.cast(int, edge["dst"])] += _t.cast(int,
                                                      edge["messages"])
    for node in nodes:
        rank = _t.cast(int, node["rank"])
        if node.get("messages_in") != inbound[rank] \
                or node.get("messages_out") != outbound[rank]:
            raise DocumentError(
                f"node {rank} in/out totals disagree with edges")
    return {"nodes": len(nodes), "edges": len(edges),
            "messages": messages, "bytes": bytes_total}


DOCUMENT = Schema(GRAPH_SCHEMA, GRAPH_SCHEMA_VERSION, _validate,
                  "comm graph")


__all__ = [
    "DOCUMENT",
    "GRAPH_SCHEMA",
    "GRAPH_SCHEMA_VERSION",
    "CommGraph",
    "GraphBuilder",
    "GraphEdge",
    "GraphNode",
    "PartitionCosts",
    "dot_graph",
    "evaluate_partition",
    "extract_graph",
    "graph_document",
    "write_dot",
    "write_graph",
]
