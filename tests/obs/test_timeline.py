"""Time-windowed telemetry: window math, n/a semantics, export."""

import json

import pytest

from repro.obs.timeline import (
    KEY_ALL,
    SERIES_ISSUED,
    SERIES_LATENCY,
    Timeline,
    timeline_document,
    write_timeline,
)
from repro.util.document import DocumentError, check, dumps


def make_timeline(interval=0.01):
    return Timeline(interval, bounds=(100.0, 1000.0, 10000.0))


class TestWindowMath:
    def test_window_of_and_bounds(self):
        tl = make_timeline(0.01)
        assert tl.window_of(0.0) == 0
        assert tl.window_of(0.0099) == 0
        assert tl.window_of(0.01) == 1
        assert tl.window_end(3) == pytest.approx(0.04)

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            Timeline(0.0)

    def test_rejects_unsorted_bounds_at_construction(self):
        # Regression: the bounds used to be checked only when the first
        # histogram cell was built, i.e. at the first observe — from
        # inside the simulation, long after an ``inc`` had succeeded.
        with pytest.raises(ValueError):
            Timeline(0.01, bounds=(10.0, 1.0))
        with pytest.raises(ValueError):
            Timeline(0.01, bounds=(1.0, 1.0))

    def test_window_range_is_none_when_untouched(self):
        assert make_timeline().window_range() is None

    def test_window_range_spans_counters_and_histograms(self):
        tl = make_timeline(0.01)
        tl.inc(SERIES_ISSUED, KEY_ALL, now=0.005)
        tl.observe(SERIES_LATENCY, KEY_ALL, now=0.045, value=50.0)
        assert tl.window_range() == (0, 4)


class TestEmptyIsNa:
    """Empty windows are n/a (None), never a measured 0.0."""

    def test_quantile_series_yields_none_for_empty_windows(self):
        tl = make_timeline(0.01)
        tl.observe(SERIES_LATENCY, KEY_ALL, now=0.005, value=50.0)
        tl.observe(SERIES_LATENCY, KEY_ALL, now=0.025, value=500.0)
        series = tl.quantile_series(SERIES_LATENCY, KEY_ALL, 0.99)
        assert series == [100.0, None, 1000.0]
        assert series[1] is None  # n/a, not a measured 0.0

    def test_mean_series_yields_none_for_empty_windows(self):
        tl = make_timeline(0.01)
        tl.observe(SERIES_LATENCY, KEY_ALL, now=0.005, value=50.0)
        tl.observe(SERIES_LATENCY, KEY_ALL, now=0.025, value=500.0)
        assert tl.mean_series(SERIES_LATENCY, KEY_ALL) == [50.0, None,
                                                           500.0]

    def test_counter_series_fills_zero_not_none(self):
        # Zero events genuinely happened in an untouched counter window.
        tl = make_timeline(0.01)
        tl.inc(SERIES_ISSUED, KEY_ALL, now=0.005)
        tl.inc(SERIES_ISSUED, KEY_ALL, now=0.025, amount=2.0)
        assert tl.counter_series(SERIES_ISSUED, KEY_ALL) == [1.0, 0.0, 2.0]


class TestSeries:
    def test_counter_total_series_sums_by_prefix(self):
        tl = make_timeline(0.01)
        tl.inc("rsr_delivered", "method=tcp", now=0.005)
        tl.inc("rsr_delivered", "method=mpl", now=0.005, amount=3.0)
        tl.inc("rsr_delivered", "rank=0", now=0.005)  # different prefix
        totals = tl.counter_total_series("rsr_delivered", prefix="method=")
        assert totals == [4.0]

    def test_explicit_bounds_pad_the_series(self):
        tl = make_timeline(0.01)
        tl.inc(SERIES_ISSUED, KEY_ALL, now=0.015)
        assert tl.counter_series(SERIES_ISSUED, KEY_ALL, lo=0, hi=3) \
            == [0.0, 1.0, 0.0, 0.0]

    def test_keys_are_sorted_across_counters_and_histograms(self):
        tl = make_timeline()
        tl.inc("s", "b", now=0.0)
        tl.observe("s", "a", now=0.0, value=1.0)
        assert tl.keys("s") == ["a", "b"]

    def test_rank_numbering_is_dense_first_touch(self):
        tl = make_timeline()
        assert tl.rank_of(9041) == 0
        assert tl.rank_of(17) == 1
        assert tl.rank_of(9041) == 0  # stable

    def test_max_windows_cap_counts_truncation(self):
        tl = Timeline(0.01, bounds=(1.0,), max_windows=1)
        tl.observe(SERIES_LATENCY, KEY_ALL, now=0.005, value=0.5)
        tl.observe(SERIES_LATENCY, KEY_ALL, now=0.015, value=0.5)
        assert tl.truncated == 1
        assert tl.mean_series(SERIES_LATENCY, KEY_ALL) == [0.5]


def fill(tl):
    tl.inc(SERIES_ISSUED, KEY_ALL, now=0.002)
    tl.inc("rsr_delivered", "method=tcp", now=0.004)
    tl.observe(SERIES_LATENCY, KEY_ALL, now=0.004, value=90.0)
    tl.observe(SERIES_LATENCY, "method=tcp", now=0.004, value=90.0)
    tl.observe(SERIES_LATENCY, KEY_ALL, now=0.024, value=4000.0)
    return tl


class TestExport:
    def test_identical_fills_export_identical_bytes(self):
        one = dumps(timeline_document(fill(make_timeline()),
                                      meta={"seed": 1}))
        two = dumps(timeline_document(fill(make_timeline()),
                                      meta={"seed": 1}))
        assert one == two

    def test_document_passes_the_validator(self):
        _schema, summary = check(timeline_document(fill(make_timeline())))
        assert summary == {"counter_series": 2, "histogram_series": 2,
                           "histogram_samples": 3}

    def test_empty_timeline_exports_null_window_range(self):
        document = timeline_document(make_timeline())
        assert document["windows"] is None
        check(document)

    def test_meta_is_carried_verbatim(self):
        document = timeline_document(
            make_timeline(), meta={"scenario": "x", "seed": 7})
        assert document["meta"] == {"scenario": "x", "seed": 7}

    def test_write_round_trips_through_the_file_validator(self, tmp_path):
        path = tmp_path / "timeline.json"
        write_timeline(str(path), fill(make_timeline()))
        text = path.read_text()
        assert text.endswith("\n")
        check(json.loads(text))

    def test_validator_rejects_wrong_schema_version(self):
        document = timeline_document(make_timeline())
        document["schema_version"] = 99
        with pytest.raises(DocumentError):
            check(document)

    def test_validator_rejects_count_mismatch(self):
        document = timeline_document(fill(make_timeline()))
        hists = document["histograms"]["rsr_latency_us"][KEY_ALL]
        next(iter(hists.values()))["count"] += 1
        with pytest.raises(DocumentError):
            check(document)

    def test_validator_rejects_unsorted_bounds(self):
        document = timeline_document(make_timeline())
        document["bounds"] = [10.0, 1.0]
        with pytest.raises(DocumentError):
            check(document)
