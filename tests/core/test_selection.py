"""Tests for method selection: the automatic rule, manual policies, QoS,
dynamic method change, and the paper's Figure 3 scenario."""

import pytest

from repro.core.buffers import Buffer
from repro.core.errors import SelectionError
from repro.core.selection import (
    FirstApplicable,
    PreferMethod,
    QoSAware,
    RequireMethod,
)
from repro.testbeds import make_sp2
from repro.util.units import mbps


@pytest.fixture
def bed():
    return make_sp2(nodes_a=2, nodes_b=1)


def connect(sp):
    return sp.ensure_connected(sp.links[0])


class TestFirstApplicable:
    def test_fastest_first_in_partition(self, bed):
        a = bed.nexus.context(bed.hosts_a[0])
        b = bed.nexus.context(bed.hosts_a[1])
        sp = a.startpoint_to(b.new_endpoint())
        assert connect(sp).method == "mpl"

    def test_falls_through_to_tcp(self, bed):
        a = bed.nexus.context(bed.hosts_a[0])
        b = bed.nexus.context(bed.hosts_b[0])
        sp = a.startpoint_to(b.new_endpoint())
        assert connect(sp).method == "tcp"

    def test_local_for_same_context(self, bed):
        a = bed.nexus.context(bed.hosts_a[0])
        sp = a.startpoint_to(a.new_endpoint())
        assert connect(sp).method == "local"

    def test_reordering_table_changes_choice(self, bed):
        """Section 3.2: users influence selection by reordering entries."""
        a = bed.nexus.context(bed.hosts_a[0])
        b = bed.nexus.context(bed.hosts_a[1])
        sp = a.startpoint_to(b.new_endpoint())
        link = sp.links[0]
        link.table = link.table.promote("tcp")
        assert connect(sp).method == "tcp"

    def test_deleting_entry_changes_choice(self, bed):
        a = bed.nexus.context(bed.hosts_a[0])
        b = bed.nexus.context(bed.hosts_a[1])
        sp = a.startpoint_to(b.new_endpoint())
        link = sp.links[0]
        link.table = link.table.remove("mpl")
        assert connect(sp).method == "tcp"

    def test_nothing_applicable_raises(self, bed):
        a = bed.nexus.context(bed.hosts_a[0], methods=("local", "mpl"))
        b = bed.nexus.context(bed.hosts_b[0], methods=("local", "mpl"))
        sp = a.startpoint_to(b.new_endpoint())  # different partitions
        with pytest.raises(SelectionError, match="no applicable"):
            connect(sp)


class TestManualPolicies:
    def test_require_method(self, bed):
        a = bed.nexus.context(bed.hosts_a[0])
        b = bed.nexus.context(bed.hosts_a[1])
        sp = a.startpoint_to(b.new_endpoint())
        sp.policy = RequireMethod("tcp")
        assert connect(sp).method == "tcp"

    def test_require_method_fails_when_inapplicable(self, bed):
        a = bed.nexus.context(bed.hosts_a[0])
        b = bed.nexus.context(bed.hosts_b[0])
        sp = a.startpoint_to(b.new_endpoint(), policy=RequireMethod("mpl"))
        with pytest.raises(SelectionError):
            connect(sp)

    def test_prefer_method_with_fallback(self, bed):
        a = bed.nexus.context(bed.hosts_a[0])
        b = bed.nexus.context(bed.hosts_b[0])
        sp = a.startpoint_to(b.new_endpoint(), policy=PreferMethod("mpl"))
        assert connect(sp).method == "tcp"  # mpl inapplicable cross-partition

    def test_context_default_policy(self, bed):
        a = bed.nexus.context(bed.hosts_a[0])
        a.selection_policy = RequireMethod("tcp")
        b = bed.nexus.context(bed.hosts_a[1])
        sp = a.startpoint_to(b.new_endpoint())
        assert connect(sp).method == "tcp"

    def test_per_startpoint_policy_overrides_context(self, bed):
        a = bed.nexus.context(bed.hosts_a[0])
        a.selection_policy = RequireMethod("tcp")
        b = bed.nexus.context(bed.hosts_a[1])
        sp = a.startpoint_to(b.new_endpoint(),
                             policy=FirstApplicable())
        assert connect(sp).method == "mpl"


class TestQoSAware:
    def test_bandwidth_threshold_skips_slow_method(self, bed):
        a = bed.nexus.context(bed.hosts_a[0])
        b = bed.nexus.context(bed.hosts_a[1])
        sp = a.startpoint_to(b.new_endpoint(),
                             policy=QoSAware(min_bandwidth=mbps(20.0)))
        assert connect(sp).method == "mpl"   # tcp's 8 MB/s too slow

    def test_latency_threshold(self, bed):
        a = bed.nexus.context(bed.hosts_a[0])
        b = bed.nexus.context(bed.hosts_a[1])
        sp = a.startpoint_to(b.new_endpoint(),
                             policy=QoSAware(max_latency=1e-4))
        assert connect(sp).method == "mpl"

    def test_strict_raises_when_nothing_meets_qos(self, bed):
        a = bed.nexus.context(bed.hosts_a[0])
        b = bed.nexus.context(bed.hosts_b[0])  # only tcp applicable
        sp = a.startpoint_to(b.new_endpoint(),
                             policy=QoSAware(min_bandwidth=mbps(20.0),
                                             strict=True))
        with pytest.raises(SelectionError, match="QoS"):
            connect(sp)

    def test_nonstrict_falls_back(self, bed):
        a = bed.nexus.context(bed.hosts_a[0])
        b = bed.nexus.context(bed.hosts_b[0])
        sp = a.startpoint_to(b.new_endpoint(),
                             policy=QoSAware(min_bandwidth=mbps(20.0)))
        assert connect(sp).method == "tcp"


class TestDynamicChange:
    def test_set_method_builds_new_comm_object(self, bed):
        a = bed.nexus.context(bed.hosts_a[0])
        b = bed.nexus.context(bed.hosts_a[1])
        sp = a.startpoint_to(b.new_endpoint())
        first = connect(sp)
        assert first.method == "mpl"
        sp.set_method("tcp")
        assert sp.links[0].comm is not first
        assert sp.current_methods() == ["tcp"]
        sp.set_method("mpl")
        assert sp.current_methods() == ["mpl"]

    def test_set_method_rejects_inapplicable(self, bed):
        a = bed.nexus.context(bed.hosts_a[0])
        b = bed.nexus.context(bed.hosts_b[0])
        sp = a.startpoint_to(b.new_endpoint())
        with pytest.raises(SelectionError):
            sp.set_method("mpl")

    def test_comm_objects_shared_between_startpoints(self, bed):
        """Same destination + same method -> one shared comm object."""
        a = bed.nexus.context(bed.hosts_a[0])
        b = bed.nexus.context(bed.hosts_a[1])
        endpoint1 = b.new_endpoint()
        endpoint2 = b.new_endpoint()
        sp1 = a.startpoint_to(endpoint1)
        sp2 = a.startpoint_to(endpoint2)
        assert connect(sp1) is connect(sp2)
        assert len(a.comm_objects()) == 1


class TestFigure3Scenario:
    """The paper's worked selection example: node 0 (Ethernet only) holds
    a startpoint to node 2 (on an SP2, Ethernet+MPL); selection picks
    Ethernet.  Migrating the startpoint to node 1 — in the same SP
    partition as node 2 — re-selects MPL.

    TCP plays Ethernet's role here (the available everywhere method).
    """

    def test_migration_reselects_faster_method(self):
        bed = make_sp2(nodes_a=2, nodes_b=1)
        nexus = bed.nexus
        node1 = nexus.context(bed.hosts_a[0], "node1")
        node2 = nexus.context(bed.hosts_a[1], "node2")
        node0 = nexus.context(bed.hosts_b[0], "node0",
                              methods=("local", "tcp"))

        # node0's link to node2: table carries [mpl, tcp]; only tcp works.
        sp_at_0 = node0.startpoint_to(node2.new_endpoint())
        assert sp_at_0.links[0].table.methods == ["local", "mpl", "tcp"]
        assert sp_at_0.ensure_connected(sp_at_0.links[0]).method == "tcp"

        # Migrate the startpoint to node1 (same partition as node2).
        wire = sp_at_0.to_wire()
        sp_at_1 = node1.import_startpoint(wire)
        assert sp_at_1.ensure_connected(sp_at_1.links[0]).method == "mpl"

    def test_full_rsr_after_migration(self):
        bed = make_sp2(nodes_a=2, nodes_b=1)
        nexus = bed.nexus
        node1 = nexus.context(bed.hosts_a[0], "node1")
        node2 = nexus.context(bed.hosts_a[1], "node2")
        node0 = nexus.context(bed.hosts_b[0], "node0",
                              methods=("local", "tcp"))
        got = []
        node2.register_handler("h", lambda c, e, buf: got.append(buf.get_str()))
        node1.register_handler("carry",
                               lambda c, e, buf: _carry(c, buf))
        carried = {}

        def _carry(ctx, buffer):
            carried["sp"] = buffer.get_startpoint(ctx)

        sp = node0.startpoint_to(node2.new_endpoint())
        carrier_sp = node0.startpoint_to(node1.new_endpoint())

        def node0_body():
            # Send the startpoint itself to node1 inside a buffer.
            yield from carrier_sp.rsr("carry",
                                      Buffer().put_startpoint(sp))

        def node1_body():
            yield from node1.wait(lambda: "sp" in carried)
            migrated = carried["sp"]
            yield from migrated.rsr("h", Buffer().put_str("via mpl"))
            return migrated.current_methods()

        def node2_body():
            yield from node2.wait(lambda: bool(got))

        sender = nexus.spawn(node1_body())
        receiver = nexus.spawn(node2_body())
        nexus.spawn(node0_body())
        nexus.run(until=nexus.sim.all_of([sender, receiver]))
        assert got == ["via mpl"]
        assert sender.value == ["mpl"]
