"""Tests for the metrics registry (counters, gauges, histograms)."""

import pytest

from repro.obs.metrics import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS_US,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_inc(self):
        registry = MetricsRegistry()
        counter = registry.counter("sends", method="tcp")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert isinstance(counter.value, int)

    def test_same_labels_same_object(self):
        registry = MetricsRegistry()
        a = registry.counter("sends", method="tcp")
        b = registry.counter("sends", method="tcp")
        assert a is b

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        a = registry.counter("x", method="tcp", ctx=1)
        b = registry.counter("x", ctx=1, method="tcp")
        assert a is b

    def test_different_labels_different_objects(self):
        registry = MetricsRegistry()
        assert (registry.counter("sends", method="tcp")
                is not registry.counter("sends", method="mpl"))


class TestGauge:
    def test_set_tracks_high_water_mark(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(3.0)
        gauge.set(7.0)
        gauge.set(2.0)
        assert gauge.value == 2.0
        assert gauge.max_value == 7.0


class TestHistogram:
    def test_bucket_placement(self):
        histogram = Histogram("h", (), (1.0, 10.0, 100.0))
        for value in (0.5, 1.0, 5.0, 100.0, 5000.0):
            histogram.observe(value)
        # bisect_left: a value equal to a bound lands in that bound's bucket.
        assert histogram.counts == [2, 1, 1, 1]
        assert histogram.count == 5
        assert histogram.min_value == 0.5
        assert histogram.max_value == 5000.0

    def test_mean_is_exact_not_quantised(self):
        histogram = Histogram("h", (), (1.0, 1000.0))
        histogram.observe(2.0)
        histogram.observe(4.0)
        assert histogram.mean == 3.0

    def test_quantile_upper_bound(self):
        histogram = Histogram("h", (), (1.0, 10.0, 100.0))
        for _ in range(9):
            histogram.observe(5.0)
        histogram.observe(50.0)
        assert histogram.quantile(0.5) == 10.0
        assert histogram.quantile(1.0) == 100.0

    def test_quantile_overflow_reports_observed_max(self):
        histogram = Histogram("h", (), (1.0,))
        histogram.observe(123.0)
        assert histogram.quantile(0.99) == 123.0

    def test_quantile_zero_is_the_first_non_empty_bucket(self):
        # Regression: q = 0 used to answer the first bound (1.0), the
        # bound of a bucket that holds nothing.
        histogram = Histogram("h", (), (1.0, 2.0, 5.0))
        histogram.observe(1.5)
        assert histogram.quantile(0.0) == 2.0
        overflow = Histogram("h", (), (1.0,))
        overflow.observe(7.0)
        assert overflow.quantile(0.0) == 7.0

    def test_empty_histogram(self):
        histogram = Histogram("h", (), (1.0,))
        assert histogram.mean is None
        assert histogram.quantile(0.5) is None

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", (), (10.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", (), (1.0, 1.0))

    def test_default_ladders_are_valid(self):
        Histogram("a", (), LATENCY_BUCKETS_US)
        Histogram("b", (), COUNT_BUCKETS)


class TestRegistry:
    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")
        with pytest.raises(TypeError):
            registry.histogram("x")

    def test_collect_is_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b", method="tcp")
        registry.counter("a", method="z")
        registry.counter("a", method="m")
        names = [(name, labels) for name, labels, _m in registry.collect()]
        assert names == sorted(names)

    def test_count_reads_counters_without_registering(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.counter("x").inc(4)
        registry.counter("x", method="tcp").inc(2)
        registry.gauge("depth").set(3.0)
        assert registry.count("x") == 5
        assert registry.count("x", method="tcp") == 2
        assert registry.count("missing") == 0
        assert registry.count("x", method="mpl") == 0
        assert registry.count("depth") == 0
        assert len(registry) == 3

    def test_collect_by_name(self):
        registry = MetricsRegistry()
        registry.counter("a")
        registry.counter("b")
        assert len(registry.collect("a")) == 1

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("sends", method="tcp").inc(2)
        registry.gauge("depth").set(1.0)
        registry.histogram("lat", (1.0, 10.0), method="tcp").observe(3.0)
        snap = registry.snapshot()
        assert snap["sends"] == [{"labels": {"method": "tcp"}, "value": 2.0}]
        assert snap["depth"][0]["max"] == 1.0
        hist = snap["lat"][0]
        assert hist["bounds"] == [1.0, 10.0]
        assert hist["counts"] == [0, 1, 0]
        assert sum(hist["counts"]) == hist["count"] == 1

    def test_snapshot_deterministic(self):
        def build():
            registry = MetricsRegistry()
            registry.counter("z", method="tcp").inc()
            registry.counter("a", method="mpl").inc(3)
            registry.histogram("h", (1.0,), phase="wire").observe(0.5)
            return registry.snapshot()

        assert build() == build()
