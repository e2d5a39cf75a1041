"""Paragon-style co-residency: several contexts sharing one processor.

The paper notes the Intel Paragon descriptor "also includes the name of
the process with which we wish to communicate, since on the Paragon, a
parallel computation can contain several processes executing on the same
processor."  These tests exercise that configuration: multiple contexts
on one host and shared-memory selection between them.
"""

import pytest

from repro.core.buffers import Buffer
from repro.testbeds import make_sp2

METHODS = ("local", "shm", "mpl", "tcp")


@pytest.fixture
def bed():
    return make_sp2(nodes_a=2, nodes_b=0, transports=METHODS)


class TestShmSelection:
    def test_coresident_contexts_pick_shm(self, bed):
        nexus = bed.nexus
        host = bed.hosts_a[0]
        a = nexus.context(host, "a", methods=METHODS)
        b = nexus.context(host, "b", methods=METHODS)
        sp = a.startpoint_to(b.new_endpoint())
        assert sp.ensure_connected(sp.links[0]).method == "shm"

    def test_cross_host_still_mpl(self, bed):
        nexus = bed.nexus
        a = nexus.context(bed.hosts_a[0], methods=METHODS)
        b = nexus.context(bed.hosts_a[1], methods=METHODS)
        sp = a.startpoint_to(b.new_endpoint())
        assert sp.ensure_connected(sp.links[0]).method == "mpl"

    def test_shm_delivery_fast(self, bed):
        nexus = bed.nexus
        host = bed.hosts_a[0]
        a = nexus.context(host, "a", methods=METHODS)
        b = nexus.context(host, "b", methods=METHODS)
        log = []
        b.register_handler("h", lambda c, e, buf: log.append(nexus.now))
        sp = a.startpoint_to(b.new_endpoint())

        def sender():
            yield from sp.rsr("h", Buffer())

        def receiver():
            yield from b.wait(lambda: bool(log))

        done = nexus.spawn(receiver())
        nexus.spawn(sender())
        nexus.run(until=done)
        assert log[0] < 300e-6  # a few polling cycles, no wire latency

