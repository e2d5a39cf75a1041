"""Tests for the ping-pong microbenchmark apps (Figures 4-6 substrate)."""

import pytest

from repro.apps.dualpingpong import dual_pingpong
from repro.apps.pingpong import nexus_pingpong, raw_transport_pingpong
from repro.testbeds import make_sp2
from repro.transports.errors import TransportError


class TestRawPingPong:
    def test_one_way_positive_and_scales(self):
        small = raw_transport_pingpong(0, 30)
        large = raw_transport_pingpong(100_000, 30)
        assert 0 < small.one_way < large.one_way

    def test_deterministic(self):
        a = raw_transport_pingpong(1000, 25)
        b = raw_transport_pingpong(1000, 25)
        assert a.one_way == b.one_way

    def test_large_message_bandwidth_limited(self):
        size = 1024 * 1024
        result = raw_transport_pingpong(size, 10)
        bandwidth = 36 * 1024 * 1024
        assert result.one_way >= size / bandwidth

    def test_non_polling_method_is_a_typed_error(self):
        """TCP has no device queue to spin on; the check must survive
        ``python -O`` (it used to be an ``assert``)."""
        bed = make_sp2(nodes_a=2, nodes_b=0)
        with pytest.raises(TransportError, match="'tcp'"):
            raw_transport_pingpong(0, 1, method="tcp", testbed=bed)


class TestNexusPingPong:
    def test_layering_order(self):
        raw = raw_transport_pingpong(0, 30)
        single = nexus_pingpong(0, 30, methods=("local", "mpl"))
        multi = nexus_pingpong(0, 30, methods=("local", "mpl", "tcp"))
        assert raw.one_way < single.one_way < multi.one_way

    def test_skip_poll_narrows_multimethod_gap(self):
        single = nexus_pingpong(0, 30, methods=("local", "mpl"))
        multi_skipped = nexus_pingpong(0, 30,
                                       methods=("local", "mpl", "tcp"),
                                       skip={"tcp": 50})
        multi_full = nexus_pingpong(0, 30, methods=("local", "mpl", "tcp"))
        assert single.one_way <= multi_skipped.one_way < multi_full.one_way

    def test_cross_partition_runs_over_tcp(self):
        result = nexus_pingpong(0, 10, methods=("local", "mpl", "tcp"),
                                cross_partition=True)
        # TCP latency dominates: one-way in the milliseconds
        assert result.one_way > 2e-3

    def test_blocking_tcp_matches_single_method(self):
        single = nexus_pingpong(0, 30, methods=("local", "mpl"))
        blocking = nexus_pingpong(0, 30, methods=("local", "mpl", "tcp"),
                                  blocking=("tcp",))
        assert blocking.one_way == pytest.approx(single.one_way, rel=0.05)

    def test_result_arithmetic(self):
        result = nexus_pingpong(0, 10, methods=("local", "mpl"))
        assert result.one_way == result.elapsed / 20
        assert result.roundtrips == 10


class TestDualPingPong:
    def test_concurrent_pairs_both_progress(self):
        result = dual_pingpong(0, 1, mpl_roundtrips=100)
        assert result.mpl_one_way > 0
        assert result.tcp_roundtrips >= 1
        assert result.tcp_one_way > result.mpl_one_way

    def test_skip_tradeoff_direction(self):
        low = dual_pingpong(0, 1, mpl_roundtrips=200)
        high = dual_pingpong(0, 100, mpl_roundtrips=200)
        assert high.mpl_one_way < low.mpl_one_way
        assert high.tcp_one_way > low.tcp_one_way

    def test_blocking_tcp_best_of_both(self):
        unified = dual_pingpong(0, 1, mpl_roundtrips=200)
        blocking = dual_pingpong(0, 1, mpl_roundtrips=200,
                                 blocking_tcp=True)
        assert blocking.mpl_one_way < unified.mpl_one_way
        assert blocking.tcp_one_way <= unified.tcp_one_way * 1.1

    def test_deterministic(self):
        a = dual_pingpong(128, 10, mpl_roundtrips=150)
        b = dual_pingpong(128, 10, mpl_roundtrips=150)
        assert (a.mpl_one_way, a.tcp_one_way) == (b.mpl_one_way,
                                                  b.tcp_one_way)
