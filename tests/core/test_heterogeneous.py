"""Tests for heterogeneous data conversion (XDR) costs."""

import pytest

from repro.core.buffers import Buffer
from repro.testbeds import make_iway, make_sp2


def one_way(nexus, a, b, nbytes):
    log = []
    b.register_handler("h", lambda c, e, buf: log.append(nexus.now))
    sp = a.startpoint_to(b.new_endpoint())

    def sender():
        yield from sp.rsr("h", Buffer().put_padding(nbytes))

    def receiver():
        yield from b.wait(lambda: bool(log))

    done = nexus.spawn(receiver())
    nexus.spawn(sender())
    nexus.run(until=done)
    return log[0]


class TestConversionCost:
    def test_same_arch_pays_nothing(self):
        bed = make_sp2(nodes_a=2, nodes_b=0)
        for host in bed.hosts_a:
            host.attributes["arch"] = "power1"
        a = bed.nexus.context(bed.hosts_a[0])
        b = bed.nexus.context(bed.hosts_a[1])
        one_way(bed.nexus, a, b, 100_000)
        assert bed.nexus.obs.metrics.count("nexus.xdr_conversions") == 0

    def test_undeclared_arch_pays_nothing(self):
        bed = make_sp2(nodes_a=2, nodes_b=0)  # no arch attributes
        a = bed.nexus.context(bed.hosts_a[0])
        b = bed.nexus.context(bed.hosts_a[1])
        one_way(bed.nexus, a, b, 100_000)
        assert bed.nexus.obs.metrics.count("nexus.xdr_conversions") == 0

    def test_cross_arch_charges_per_byte(self):
        def run(arch_b):
            bed = make_sp2(nodes_a=2, nodes_b=0)
            bed.hosts_a[0].attributes["arch"] = "power1"
            bed.hosts_a[1].attributes["arch"] = arch_b
            a = bed.nexus.context(bed.hosts_a[0])
            b = bed.nexus.context(bed.hosts_a[1])
            time = one_way(bed.nexus, a, b, 1_000_000)
            metrics = bed.nexus.obs.metrics
            return time, metrics.count("nexus.xdr_conversions")

        homo_time, homo_count = run("power1")
        hetero_time, hetero_count = run("sparc")
        assert homo_count == 0 and hetero_count == 1
        xdr = bed_xdr = 1_000_000 * 0.05e-6
        assert hetero_time - homo_time == pytest.approx(bed_xdr, rel=0.05)

    def test_iway_defaults_are_heterogeneous(self):
        bed = make_iway()
        nexus = bed.nexus
        sp2_ctx = nexus.context(bed.sp2_hosts[0])
        cave_ctx = nexus.context(bed.cave_host)
        one_way(nexus, sp2_ctx, cave_ctx, 10_000)
        assert nexus.obs.metrics.count("nexus.xdr_conversions") == 1

    def test_sp2_testbed_unaffected(self):
        """The SP2 calibration experiments must not pay XDR costs."""
        bed = make_sp2(nodes_a=2, nodes_b=1)
        a = bed.nexus.context(bed.hosts_a[0])
        b = bed.nexus.context(bed.hosts_b[0])
        one_way(bed.nexus, a, b, 50_000)
        assert bed.nexus.obs.metrics.count("nexus.xdr_conversions") == 0
