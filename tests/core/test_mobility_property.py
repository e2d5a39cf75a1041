"""A moved startpoint selects what a fresh one at its destination would.

PAPER.md §1–2: a startpoint copied into another context carries its
links' descriptor tables (or, lightweight, leaves the importer to use
the referenced context's default table), and this implementation also
carries the sender's view of which methods are down.  Selection state
does not travel: the copy selects afresh, from where it now lives.

So generated programs rebind each link's table at the source (promote,
remove, add, reorder), mark methods down towards the linked contexts,
may select before the move, and then move the startpoint by
``to_wire``/``import_startpoint`` or by ``put_startpoint``/
``get_startpoint``, full or lightweight, to the source itself or to a
new context on any host.  The reference is a fresh startpoint in a
twin context on the destination's host, bound to the table the copy
should carry, whose health is seeded with the source's down methods by
hand; every link of the copy must select the descriptor the reference
selects.  No destination is a linked context, so the ``local`` method
(applicable only inside the linked context) cannot tell the twin from
the destination.

Tier-1 runs a small derandomised budget; the deep one is opt-in:
``python -m pytest tests/core/test_mobility_property.py
--hypothesis-profile=deep``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buffers import Buffer
from repro.core.errors import SelectionError
from repro.testbeds import make_sp2

METHODS = ("local", "mpl", "tcp")

DEEP = settings.get_profile("deep")
#: The deep profile when it was asked for, the tier-1 budget otherwise.
PROFILE = (DEEP if settings.default is DEEP
           else settings(max_examples=150, deadline=None, derandomize=True))

steps = st.one_of(
    st.tuples(st.just("promote"), st.integers(0, 1),
              st.sampled_from(METHODS)),
    st.tuples(st.just("remove"), st.integers(0, 1),
              st.sampled_from(METHODS)),
    st.tuples(st.just("add"), st.integers(0, 1), st.sampled_from(METHODS),
              st.integers(0, 3)),
    st.tuples(st.just("reorder"), st.integers(0, 1),
              st.permutations(METHODS)),
    st.tuples(st.just("mark_down"), st.integers(0, 1),
              st.sampled_from(METHODS)),
    st.tuples(st.just("select"), st.integers(0, 1)),
)


def selections(sp):
    """The descriptor each link selects, or None when none is left."""
    chosen = []
    for link in sp.links:
        try:
            chosen.append(sp.ensure_connected(link).descriptor)
        except SelectionError:
            chosen.append(None)
    return chosen


@given(two_links=st.booleans(),
       program=st.lists(steps, max_size=12),
       route=st.sampled_from(("wire", "buffer")),
       lightweight=st.booleans(),
       destination=st.sampled_from(("source", "a0", "a1", "b0")))
@PROFILE
def test_moved_startpoint_selects_like_a_fresh_one(two_links, program, route,
                                                   lightweight, destination):
    bed = make_sp2(nodes_a=2, nodes_b=1)
    nexus = bed.nexus
    source = nexus.context(bed.hosts_a[0], "source")
    remotes = [nexus.context(bed.hosts_a[1], "remote-a")]
    if two_links:
        remotes.append(nexus.context(bed.hosts_b[0], "remote-b"))
    sp = source.new_startpoint()
    for remote in remotes:
        sp.bind(remote.new_endpoint())

    for step in program:
        op, link = step[0], sp.links[step[1] % len(sp.links)]
        if op == "mark_down":
            source.health.mark_down(link.context_id, step[2])
        elif op == "select":
            selections(sp)
        elif op == "reorder":
            link.table = link.table.reorder(
                [m for m in step[2] if m in link.table])
        elif op == "add":
            published = nexus.default_table_for(link.context_id)
            if step[2] not in link.table:
                link.table = link.table.add(published.entry(step[2]),
                                            min(step[3], len(link.table)))
        elif step[2] in link.table:  # promote / remove
            link.table = getattr(link.table, op)(step[2])

    hosts = {"a0": bed.hosts_a[0], "a1": bed.hosts_a[1],
             "b0": bed.hosts_b[0]}
    if destination == "source":
        target, host = source, bed.hosts_a[0]
    else:
        host = hosts[destination]
        target = nexus.context(host, "destination")

    twin = nexus.context(host, "twin")
    fresh = twin.new_startpoint()
    for link in sp.links:
        for method in source.health.down_methods(link.context_id):
            twin.health.mark_down(link.context_id, method)
        table = (nexus.default_table_for(link.context_id) if lightweight
                 else link.table)
        fresh.bind_address(link.context_id, link.endpoint_id, table)

    if route == "wire":
        moved = target.import_startpoint(sp.to_wire(lightweight=lightweight))
    else:
        buffer = Buffer().put_startpoint(sp, lightweight=lightweight)
        moved = buffer.get_startpoint(target)

    assert moved.current_methods() == [None] * len(sp.links)
    assert selections(moved) == selections(fresh)
