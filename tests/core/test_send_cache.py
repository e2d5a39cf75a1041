"""Tests for the send-path caches added for wall-clock throughput.

Two caches keep the hot path cheap without changing behaviour:

* the per-link method-selection cache in
  :meth:`Startpoint.ensure_connected`, invalidated when the link's
  descriptor table is rebound and when the :class:`HealthTracker`
  ``epoch`` moves;
* the poll plan in :class:`PollManager`, invalidated by every poll
  configuration mutator and by transport-registry growth.
"""

import pytest

from repro.core.errors import SelectionError


@pytest.fixture
def pair(sp2):
    nexus = sp2.nexus
    a = nexus.context(sp2.hosts_a[0], "A")
    b = nexus.context(sp2.hosts_a[1], "B")
    return sp2, a, b


class CountingPolicy:
    """Wraps a selection policy, counting rescans."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def select(self, *args, **kwargs):
        self.calls += 1
        return self.inner.select(*args, **kwargs)


@pytest.fixture
def linked(pair):
    bed, a, b = pair
    policy = CountingPolicy(a.selection_policy)
    a.selection_policy = policy
    startpoint = a.startpoint_to(b.new_endpoint())
    return bed, a, b, startpoint, policy


class TestSelectionCache:
    def test_fast_path_skips_policy(self, linked):
        _bed, _a, _b, sp, policy = linked
        link = sp.links[0]
        comm = sp.ensure_connected(link)
        assert policy.calls == 1
        assert link.selected_table is link.table
        for _ in range(10):
            assert sp.ensure_connected(link) is comm
        assert policy.calls == 1  # every repeat hit the cache

    def test_excluded_methods_bypass_the_cache(self, linked):
        _bed, _a, _b, sp, policy = linked
        link = sp.links[0]
        selected = sp.ensure_connected(link).method
        other = sp.ensure_connected(link, excluded=(selected,))
        assert other.method != selected
        assert policy.calls == 2

    def test_table_edit_invalidates(self, linked):
        _bed, _a, _b, sp, policy = linked
        link = sp.links[0]
        first = sp.ensure_connected(link)
        # Rebinding the link's table to an edited one: the next send
        # must rescan and respect the new contents.
        link.table = link.table.remove(first.method)
        second = sp.ensure_connected(link)
        assert second.method != first.method
        assert policy.calls == 2

    def test_table_reorder_invalidates(self, linked):
        _bed, _a, _b, sp, policy = linked
        link = sp.links[0]
        sp.ensure_connected(link)
        link.table = link.table.reorder(list(reversed(link.table.methods)))
        sp.ensure_connected(link)
        assert policy.calls == 2

    def test_health_epoch_invalidates(self, linked):
        _bed, a, b, sp, policy = linked
        link = sp.links[0]
        first = sp.ensure_connected(link)
        a.health.mark_down(b.id, first.method)
        second = sp.ensure_connected(link)
        assert second.method != first.method
        assert policy.calls == 2

    def test_set_method_sticks(self, linked):
        _bed, _a, _b, sp, policy = linked
        link = sp.links[0]
        auto = sp.ensure_connected(link).method
        manual = "tcp" if auto != "tcp" else "mpl"
        sp.set_method(manual)
        # The manual choice is stamped into the cache: ensure_connected
        # must keep it rather than silently re-running the policy.
        assert sp.ensure_connected(link).method == manual
        assert policy.calls == 1

    def test_set_method_still_yields_to_table_edits(self, linked):
        _bed, _a, _b, sp, policy = linked
        link = sp.links[0]
        auto = sp.ensure_connected(link).method
        manual = "tcp" if auto != "tcp" else "mpl"
        sp.set_method(manual)
        link.table = link.table.remove(manual)
        assert sp.ensure_connected(link).method != manual

    def test_no_methods_left_still_raises(self, linked):
        _bed, a, b, sp, _policy = linked
        link = sp.links[0]
        sp.ensure_connected(link)
        for method in link.table.methods:
            a.health.mark_down(b.id, method)
        with pytest.raises(SelectionError, match="no healthy"):
            sp.ensure_connected(link)


class TestDescriptorTableValue:
    def test_editors_return_a_new_table(self, pair):
        """A table is a value: every editor returns a new table and leaves
        the published one unchanged, so a cache keyed on its identity
        sees every edit a link or context rebinds."""
        _bed, a, _b = pair
        table = a.export_table()
        before = list(table)
        first, last = table.methods[0], table.methods[-1]
        edited = [table.add(table.entry(first)), table.remove(first),
                  table.replace(first, table.entry(last)),
                  table.reorder(list(reversed(table.methods))),
                  table.promote(last)]
        for new in edited:
            assert new is not table and list(new) != before
        assert list(table) == before
        assert a.export_table() is table
        assert table.copy() is table


class TestPollPlanCache:
    def test_plan_reused_until_config_changes(self, pair):
        _bed, a, _b = pair
        pm = a.poll_manager
        pm.active_methods()
        plan = pm._plan
        assert plan is not None
        pm.active_methods()
        assert pm._plan is plan  # stable config -> same plan object
        pm.set_skip("tcp", 20)
        assert pm._plan is None  # mutator dropped it
        assert "tcp" in pm.active_methods()

    def test_disable_enable_invalidate(self, pair):
        _bed, a, _b = pair
        pm = a.poll_manager
        baseline = pm.amortized_cycle_time()
        pm.disable("tcp")
        cheaper = pm.amortized_cycle_time()
        assert cheaper < baseline
        pm.enable("tcp")
        assert pm.amortized_cycle_time() == baseline

    def test_mask_invalidates_on_entry_and_exit(self, pair):
        _bed, a, _b = pair
        pm = a.poll_manager
        baseline = pm.amortized_cycle_time()
        with pm.only("mpl"):
            assert pm.active_methods() == ["mpl"]
            assert pm.amortized_cycle_time() < baseline
        assert pm.amortized_cycle_time() == baseline

    def test_add_method_seeds_defaults(self, pair):
        bed, a, _b = pair
        pm = a.poll_manager
        pm.active_methods()  # build a plan to be invalidated
        bed.nexus.transports.enable("mcast")
        pm.add_method("mcast")
        assert pm.get_skip("mcast") == 1
        assert "mcast" in pm.active_methods()
        assert pm._lanes["mcast"].count == 0

    def test_registry_growth_alone_refreshes_plan(self, pair):
        """Enabling a transport changes poll applicability without any
        PollManager mutator running: a plan that had to leave a method
        out for want of its transport is not cached, so the next use
        after the registry grows picks the method up."""
        bed, a, _b = pair
        pm = a.poll_manager
        pm.methods.append("mcast")  # known to the manager, not the registry
        pm.skip.setdefault("mcast", 1)
        assert "mcast" not in pm.active_methods()
        assert pm._plan is None  # incomplete plans are not kept
        bed.nexus.transports.enable("mcast")
        assert "mcast" in pm.active_methods()
        assert pm._plan is not None
