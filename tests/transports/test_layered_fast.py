"""Protocol stacks over *fast* transports (MPL carrier, device drain)."""

import pytest

from repro.core import enquiry
from repro.core.buffers import Buffer
from repro.core.selection import RequireMethod
from repro.testbeds import make_sp2
from repro.transports.layers import ChecksumLayer, CompressionLayer, \
    make_layered


@pytest.fixture
def bed():
    return make_sp2(nodes_a=2, nodes_b=0)


def exchange(bed, name, layers, nbytes):
    nexus = bed.nexus
    make_layered(nexus.transports, "mpl", layers, name=name)
    methods = ("local", "mpl", name)
    a = nexus.context(bed.hosts_a[0], methods=methods)
    b = nexus.context(bed.hosts_a[1], methods=methods)
    log = []
    b.register_handler("h", lambda c, e, buf: log.append(
        (buf.get_padding(), nexus.now)))
    sp = a.startpoint_to(b.new_endpoint(), policy=RequireMethod(name))

    def sender():
        yield from sp.rsr("h", Buffer().put_padding(nbytes))

    def receiver():
        yield from b.wait(lambda: bool(log))

    done = nexus.spawn(receiver())
    nexus.spawn(sender())
    nexus.run(until=done)
    return log[0], nexus


def test_checksum_over_mpl_delivers(bed):
    (size, at), nexus = exchange(bed, "cksum+mpl", [ChecksumLayer()], 5000)
    assert size == 5000
    assert at < 1e-3  # still a fast-transport path
    stack = nexus.transports.get("cksum+mpl")
    assert stack.layers[0].verified == 1


def test_compression_loses_on_fast_wire(bed):
    """Why compression is a *manual* choice (Section 2.1): on the 36 MB/s
    MPL wire the codec CPU exceeds the drain saving, so the lzw stack is
    slower — the exact opposite of the 8 MB/s TCP case
    (``test_compression_wins_on_slow_wire`` in test_layers.py)."""
    (size, at_compressed), _nexus = exchange(
        bed, "lzw+mpl", [CompressionLayer(ratio=0.25)], 8 * 1024 * 1024)
    assert size == 8 * 1024 * 1024

    bed2 = make_sp2(nodes_a=2, nodes_b=0)
    (_size2, at_plain), _ = exchange(bed2, "cksum+mpl", [ChecksumLayer()],
                                     8 * 1024 * 1024)
    assert at_compressed > at_plain * 1.2


def test_carrier_stats_separate_from_plain_mpl(bed):
    (_, _), nexus = exchange(bed, "cksum+mpl", [ChecksumLayer()], 1000)
    assert nexus.transports.get("mpl").messages_sent == 0
    assert nexus.transports.get("cksum+mpl").carrier.messages_sent == 1


def test_stack_traffic_is_its_carriers_wire_traffic(bed):
    (_, _), nexus = exchange(bed, "cksum+mpl", [ChecksumLayer()], 1000)
    carrier = nexus.transports.get("cksum+mpl").carrier
    report = enquiry.report(nexus).transports
    assert report["cksum+mpl"].messages_sent == 1
    assert report["cksum+mpl"].bytes_sent == carrier.bytes_sent > 1000
    assert report["mpl"].messages_sent == 0
    busy = [name for name, stats in report.items()
            if stats.messages_sent or stats.messages_dropped]
    assert busy[0] == "cksum+mpl"


def test_plain_and_layered_mpl_coexist(bed):
    nexus = bed.nexus
    make_layered(nexus.transports, "mpl", [ChecksumLayer()],
                 name="cksum+mpl")
    methods = ("local", "mpl", "cksum+mpl")
    a = nexus.context(bed.hosts_a[0], methods=methods)
    b = nexus.context(bed.hosts_a[1], methods=methods)
    log = []
    b.register_handler("h", lambda c, e, buf: log.append(buf.get_str()))
    plain = a.startpoint_to(b.new_endpoint())
    stacked = a.startpoint_to(b.new_endpoint(),
                              policy=RequireMethod("cksum+mpl"))

    def sender():
        yield from plain.rsr("h", Buffer().put_str("plain"))
        yield from stacked.rsr("h", Buffer().put_str("stacked"))

    def receiver():
        yield from b.wait(lambda: len(log) == 2)

    done = nexus.spawn(receiver())
    nexus.spawn(sender())
    nexus.run(until=done)
    assert sorted(log) == ["plain", "stacked"]
    assert plain.current_methods() == ["mpl"]
    assert stacked.current_methods() == ["cksum+mpl"]
