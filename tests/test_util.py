"""Tests for units and result-record helpers."""

import pytest

from repro.util.records import ResultTable, Series, render_series_table
from repro.util.units import (
    GB,
    KB,
    MB,
    format_bytes,
    format_time,
    mbps,
    microseconds,
    milliseconds,
)


class TestUnits:
    def test_conversions(self):
        assert microseconds(15) == pytest.approx(15e-6)
        assert milliseconds(2) == pytest.approx(2e-3)
        assert mbps(36) == 36 * MB
        assert KB * 1024 == MB and MB * 1024 == GB

    @pytest.mark.parametrize("value,expected", [
        (0, "0 s"),
        (2.5, "2.500 s"),
        (1.5e-3, "1.500 ms"),
        (83e-6, "83.0 us"),
        (5e-9, "5.0 ns"),
    ])
    def test_format_time(self, value, expected):
        assert format_time(value) == expected

    def test_format_bytes_and_rate(self):
        assert format_bytes(512) == "512 B"
        assert format_bytes(2 * KB) == "2.00 KB"
        assert format_bytes(36 * MB) == "36.00 MB"
        assert format_bytes(3 * GB) == "3.00 GB"


class TestResultTable:
    def test_add_and_value(self):
        table = ResultTable("t", ["a", "b"])
        row = table.add("row1", 1.0, 2.0)
        assert table.rows == [row]
        assert (row.label, list(row.values)) == ("row1", [1.0, 2.0])

    def test_wrong_arity_rejected(self):
        table = ResultTable("t", ["a"])
        with pytest.raises(ValueError):
            table.add("row", 1.0, 2.0)

    def test_render_contains_rows(self):
        table = ResultTable("My Table", ["col"])
        table.add("alpha", 3.14159, note="hi")
        text = table.render(2)
        assert "My Table" in text
        assert "alpha" in text and "3.14" in text and "hi" in text


class TestSeries:
    def test_accessors(self):
        series = Series("s")
        series.add(1, 10.0)
        series.add(2, 20.0)
        assert series.xs == [1, 2]
        assert series.ys == [10.0, 20.0]
        assert series.y_at(2) == 20.0
        with pytest.raises(KeyError):
            series.y_at(3)

    def test_monotone_checks(self):
        up = Series("up")
        for x, y in [(1, 1.0), (2, 2.0), (3, 3.0)]:
            up.add(x, y)
        assert up.is_monotone(increasing=True)
        assert not up.is_monotone(increasing=False)

    def test_monotone_tolerance(self):
        wiggle = Series("w")
        for x, y in [(1, 10.0), (2, 9.5), (3, 11.0)]:
            wiggle.add(x, y)
        assert not wiggle.is_monotone(increasing=True)
        assert wiggle.is_monotone(increasing=True, tolerance=0.6)

    def test_monotone_sorts_by_x(self):
        series = Series("s")
        series.add(3, 3.0)
        series.add(1, 1.0)
        series.add(2, 2.0)
        assert series.is_monotone(increasing=True)

    def test_render_series_table_alignment(self):
        s1 = Series("one", "x")
        s2 = Series("two", "x")
        s1.add(1, 1.0)
        s1.add(2, 2.0)
        s2.add(2, 4.0)
        text = render_series_table([s1, s2], "title")
        assert "title" in text
        assert "-" in text  # missing point placeholder
        lines = [l for l in text.splitlines() if l.strip()]
        assert any("one" in line and "two" in line for line in lines)
