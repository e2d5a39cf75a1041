"""Method selection against a naive scan (the paper's contract, uncached).

PAPER.md §1: a startpoint's method is the first applicable entry of the
descriptor table it carries, unless the user chose one by hand, and it
changes when the table or the methods' health does.
:meth:`Startpoint.ensure_connected` answers from a per-link cache.  So
generated programs interleave table rebinds (every editor), reorders,
``set_method``, health transitions (``mark_down``, cool-offs that end in a
probe) and sends on one link, and after every step the cached choice
must be the descriptor :func:`naive_choice` picks by scanning afresh.

Tier-1 runs a small derandomised budget; the deep one is opt-in:
``python -m pytest tests/core/test_selection_oracle.py
--hypothesis-profile=deep``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buffers import Buffer
from repro.core.errors import SelectionError
from repro.core.health import STATE_DOWN
from repro.testbeds import make_sp2

METHODS = ("local", "mpl", "tcp")

DEEP = settings.get_profile("deep")
#: The deep profile when it was asked for, the tier-1 budget otherwise.
PROFILE = (DEEP if settings.default is DEEP
           else settings(max_examples=150, deadline=None, derandomize=True))


def naive_choice(sp, link, manual):
    """The descriptor selection must land on, with no cache: the manual
    choice while it stands, else the first entry of the link's table that
    is neither down towards the link's context nor inapplicable; None
    when nothing is left."""
    if manual is not None:
        return link.table.entry(manual)
    context = sp.context
    down = context.health.down_methods(link.context_id)
    remote_host = context.nexus.context_host(link.context_id)
    registry = context.nexus.transports
    for descriptor in link.table:
        if descriptor.method in down or descriptor.method not in registry:
            continue
        transport = registry.get(descriptor.method)
        if transport.applicable(context, descriptor, remote_host):
            return descriptor
    return None


def _edit(link, op, *args):
    """Rebind ``link``'s table to the edited one."""
    link.table = getattr(link.table, op)(*args)


def _cooloff_ended(health):
    """Has a DOWN method's cool-off run out (its next use is a probe)?"""
    ends = [row["down_since"] + health.config.cooloff
            for row in health.snapshot() if row["state"] == STATE_DOWN]
    return any(health.sim.now >= end for end in ends)


steps = st.one_of(
    st.tuples(st.just("promote"), st.sampled_from(METHODS)),
    st.tuples(st.just("remove"), st.sampled_from(METHODS)),
    st.tuples(st.just("add"), st.sampled_from(METHODS),
              st.integers(0, 3)),
    st.tuples(st.just("replace"), st.sampled_from(METHODS),
              st.integers(0, 3)),
    st.tuples(st.just("reorder"), st.permutations(METHODS)),
    st.tuples(st.just("set_method"), st.sampled_from(METHODS)),
    st.tuples(st.just("mark_down"), st.sampled_from(METHODS)),
    st.tuples(st.just("advance"), st.sampled_from((0.1, 0.3))),
    st.tuples(st.just("send")),
)


@given(remote_in_partition=st.booleans(),
       program=st.lists(steps, min_size=4, max_size=25))
@PROFILE
def test_cached_selection_is_the_naive_scan(remote_in_partition, program):
    bed = make_sp2(nodes_a=2, nodes_b=1)
    nexus = bed.nexus
    local = nexus.context(bed.hosts_a[0], "sender")
    remote = nexus.context(
        bed.hosts_a[1] if remote_in_partition else bed.hosts_b[0], "remote")
    remote.register_handler("sink", lambda ctx, ep, buf: None)
    published = {d.method: d for d in remote.export_table()}
    sp = local.startpoint_to(remote.new_endpoint())
    link = sp.links[0]
    health = local.health
    manual = None

    for step in program:
        op, args = step[0], step[1:]
        transitions = len(health.events)
        if op in ("promote", "remove", "replace"):
            if args[0] in link.table:
                if op == "replace":
                    _edit(link, "replace", args[0],
                          link.table.entry(args[0]).with_param(
                              "tag", args[1]))
                else:
                    _edit(link, op, args[0])
                manual = None
        elif op == "add":
            if args[0] in published and args[0] not in link.table:
                _edit(link, "add", published[args[0]],
                      min(args[1], len(link.table)))
                manual = None
        elif op == "reorder":
            _edit(link, "reorder", [m for m in args[0] if m in link.table])
            manual = None
        elif op == "set_method":
            try:
                sp.set_method(args[0])
            except SelectionError:
                pass  # absent or inapplicable: the link is unchanged
            else:
                manual = args[0]
        elif op == "mark_down":
            health.mark_down(remote.id, args[0])
        elif op == "advance":
            nexus.run(until=nexus.sim.timeout(args[0]))
        elif op == "send":
            if naive_choice(sp, link, manual) is None:
                continue
            done = nexus.spawn(sp.rsr("sink", Buffer()))
            nexus.run(until=done)

        if len(health.events) != transitions or _cooloff_ended(health):
            manual = None  # a health change re-runs selection
        try:
            chosen = sp.ensure_connected(link).descriptor
        except SelectionError:
            chosen = None
        assert chosen == naive_choice(sp, link, manual), (op, args)
