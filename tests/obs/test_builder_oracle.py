"""Differential oracle for the span-group builders' one-pass folds.

``reference_builders`` keeps the graph and critical-path builders'
``add_rsr`` as they were before each became one indexing pass over the
group.  The rewrite claims the *same products*: same nodes, edges and
ranks, same paths, steps and shares, bit for bit.  So both fold the same
generated RSR groups, and ``finish()`` must agree to the ``repr`` (which
tells ``-0.0`` from ``0.0`` and round-trips every float) and in dict
order.

A group grows from an ``issue`` root by motifs hung under any span
already in it, or under a parent outside the group:

* a hop — a wire span, delivered (``poll_detect`` → ``dispatch``) or not;
* a multicast fork — a wire span whose children are all wire spans,
  each delivered or not;
* a forwarding chain — ``poll_detect`` → ``forward`` → ``enqueue`` →
  ``wire``, delivered or not;
* a lone span of any phase.

Times come from a small set, so ends tie; any span may be left open
(``end=None``), and attributes carry ``nbytes``, ``dropped``, ``failed``
and a handler.  Span ids are numbered in tree order or permuted, spans
are shuffled within a group and groups are fed in shuffled order.

Tier-1 runs a small derandomised budget; the deep one is opt-in:
``python -m pytest tests/obs/test_builder_oracle.py
--hypothesis-profile=deep``.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.critpath import CritpathBuilder
from repro.obs.graph import GraphBuilder
from repro.obs.spans import (
    PHASE_DISPATCH,
    PHASE_ENQUEUE,
    PHASE_FORWARD,
    PHASE_ISSUE,
    PHASE_POLL_DETECT,
    PHASE_WIRE,
    PHASES,
    Span,
)

from .reference_builders import ReferenceCritpathBuilder, \
    ReferenceGraphBuilder

DEEP = settings.get_profile("deep")
#: The deep profile when it was asked for, the tier-1 budget otherwise.
PROFILE = (DEEP if settings.default is DEEP
           else settings(max_examples=150, deadline=None, derandomize=True))

#: Span ids of one group start at ``group * GROUP_IDS + 1``; the parent
#: id ``OUTSIDE + 1`` names no span at all.
GROUP_IDS = 1000
OUTSIDE = 10 ** 6

#: Few distinct times, so ends and starts tie; ints and floats both.
TIMES = st.sampled_from((0, 0.25, 0.5, 1, 1.5, 2.0, 3.25, -0.0, 1e-9))
ATTRS = st.sampled_from((
    None, {}, {"nbytes": 0}, {"nbytes": 64}, {"nbytes": 4096},
    {"dropped": True}, {"failed": "DeliveryError"},
    {"nbytes": 512, "dropped": True}))

#: What a motif's span draws besides its phase: (ctx, lane, start, end,
#: attrs).
SPAN_FIELDS = st.tuples(
    st.integers(0, 4), st.sampled_from(("mpl", "tcp", "nexus")), TIMES,
    st.none() | TIMES, ATTRS)


@st.composite
def motif(draw):
    """A motif's rows ``(phase, ctx, lane, start, end, attrs, parent)``,
    each ``parent`` an earlier row of the motif or ``-1``, the span the
    motif hangs under."""
    rows = []

    def add(phase, parent):
        rows.append((phase, *draw(SPAN_FIELDS), parent))
        return len(rows) - 1

    def maybe_delivered(wire):
        if draw(st.booleans()):
            detect = add(draw(st.sampled_from(
                (PHASE_POLL_DETECT, PHASE_DISPATCH))), wire)
            if draw(st.booleans()):
                add(PHASE_DISPATCH, detect)

    kind = draw(st.sampled_from(("hop", "fork", "forward", "lone")))
    if kind == "hop":
        maybe_delivered(add(PHASE_WIRE, -1))
    elif kind == "fork":
        group_send = add(PHASE_WIRE, -1)
        for _ in range(draw(st.integers(1, 3))):
            maybe_delivered(add(PHASE_WIRE, group_send))
    elif kind == "forward":
        hop = -1
        for phase in (PHASE_POLL_DETECT, PHASE_FORWARD, PHASE_ENQUEUE,
                      PHASE_WIRE):
            hop = add(phase, hop)
        maybe_delivered(hop)
    else:
        add(draw(st.sampled_from(PHASES)), -1)
    return rows


@st.composite
def group(draw, index):
    """One RSR: ``(rsr, spans)``, its spans in a shuffled order."""
    # Rows as in ``motif``; a row's parent is a row of the group, None
    # (the root) or negative: a parent outside the group.
    rows = [(PHASE_ISSUE, draw(st.integers(0, 4)), "nexus", draw(TIMES),
             draw(st.none() | TIMES),
             draw(st.sampled_from((None, {"handler": "h"},
                                   {"handler": "h", "dropped": True}))),
             None)]
    for extra in draw(st.lists(motif(), max_size=5)):
        base = len(rows)
        anchor = draw(st.integers(-1, 2 * base - 1))
        anchor = anchor if anchor < 0 else anchor % base
        rows += [(*row[:-1], anchor if row[-1] < 0 else base + row[-1])
                 for row in extra]
    # Ids in tree order, or permuted so a child may precede its parent.
    order = list(range(len(rows)))
    if draw(st.booleans()):
        order = draw(st.permutations(order))
    ids = [index * GROUP_IDS + 1 + position for position in order]
    spans = [Span(id=ids[number], rsr=index + 1, phase=phase, ctx=ctx,
                  lane=lane, start=start, end=end, attrs=attrs,
                  parent=(None if parent is None else ids[parent]
                          if parent >= 0 else OUTSIDE - parent))
             for number, (phase, ctx, lane, start, end, attrs, parent)
             in enumerate(rows)]
    return index + 1, draw(st.permutations(spans))


@st.composite
def workloads(draw):
    """RSR groups in the order they are fed."""
    count = draw(st.integers(0, 6))
    return draw(st.permutations([draw(group(index))
                                 for index in range(count)]))


def fold(graph, critpath, groups):
    for rsr, spans in groups:
        graph.add_rsr(spans)
        critpath.add_rsr(rsr, spans)
    built = graph.finish(names={0: ("ctx-zero", "host-a")})
    return (repr(list(built.nodes.items())),
            repr(list(built.edges.items())),
            repr(critpath.finish()))


def spans(*rows):
    return [Span(id=span_id, rsr=1, phase=phase, ctx=ctx, lane=lane,
                 start=start, end=end, parent=parent, attrs=attrs)
            for span_id, phase, ctx, lane, start, end, parent, attrs in rows]


class TestBuilderOracle:
    @PROFILE
    @given(groups=workloads(), top_k=st.none() | st.integers(1, 3))
    @example(groups=[(1, spans(
        (1, PHASE_ISSUE, 0, "nexus", 0.0, 3.0, None, {"handler": "h"}),
        (2, PHASE_WIRE, 0, "mpl", 0.5, 1.0, 1, {"nbytes": 8}),
        (3, PHASE_DISPATCH, 2, "nexus", 1.0, 1.5, 2, None),
        (4, PHASE_POLL_DETECT, 1, "nexus", 1.0, 3.0, 2, None)))],
        top_k=None)
    def test_finish_equals_reference(self, groups, top_k):
        assert fold(GraphBuilder(), CritpathBuilder(top_k=top_k),
                    groups) == fold(ReferenceGraphBuilder(),
                                    ReferenceCritpathBuilder(top_k=top_k),
                                    groups)
