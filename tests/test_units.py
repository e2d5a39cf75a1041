"""Edge cases for :mod:`repro.util.units` formatting and conversions.

The basics live in ``tests/test_util.py``; this file pins down the
boundary and sign behaviour the load tier's tables lean on: exact unit
thresholds, negative durations (clock deltas), sub-byte and huge
values, and the paper-era 2**20 byte convention.
"""

import pytest

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


class TestConversionEdges:
    def test_zero_passes_through(self):
        assert microseconds(0) == 0.0
        assert milliseconds(0) == 0.0
        assert mbps(0) == 0.0

    def test_fractional_inputs(self):
        assert microseconds(0.5) == pytest.approx(5e-7)
        assert milliseconds(0.25) == pytest.approx(2.5e-4)
        assert mbps(0.5) == pytest.approx(MB / 2)

    def test_paper_era_binary_multipliers(self):
        # 1 MB = 2**20 bytes, not 1e6 — the SP2-era convention the cost
        # models are calibrated in.
        assert KB == 2**10 and MB == 2**20 and GB == 2**30
        assert mbps(36) == 36 * 2**20


class TestFormatTimeBoundaries:
    @pytest.mark.parametrize("value,expected", [
        (1.0, "1.000 s"),            # exact second threshold
        (1e-3, "1.000 ms"),          # exact millisecond threshold
        (1e-6, "1.0 us"),            # exact microsecond threshold
        (999e-9, "999.0 ns"),        # just under a microsecond
        (999.4e-6, "999.4 us"),      # just under a millisecond
        (0.9994, "999.400 ms"),      # just under a second
    ])
    def test_threshold_values(self, value, expected):
        assert format_time(value) == expected

    @pytest.mark.parametrize("value,expected", [
        (-2.5, "-2.500 s"),
        (-1.5e-3, "-1.500 ms"),
        (-83e-6, "-83.0 us"),
        (-5e-9, "-5.0 ns"),
    ])
    def test_negative_durations_keep_sign_and_unit(self, value, expected):
        # Unit selection must follow the magnitude, not the signed value.
        assert format_time(value) == expected

    def test_zero_is_special_cased(self):
        assert format_time(0) == "0 s"
        assert format_time(0.0) == "0 s"

    def test_huge_and_tiny(self):
        assert format_time(86400.0) == "86400.000 s"
        assert format_time(1e-12) == "0.0 ns"


class TestFormatBytesBoundaries:
    @pytest.mark.parametrize("value,expected", [
        (0, "0 B"),
        (1023, "1023 B"),            # just under the KB threshold
        (KB, "1.00 KB"),             # exact thresholds
        (MB, "1.00 MB"),
        (GB, "1.00 GB"),
        (MB - 1, "1024.00 KB"),      # just under MB stays in KB
        (1536, "1.50 KB"),
        (5 * GB + GB // 2, "5.50 GB"),
    ])
    def test_threshold_values(self, value, expected):
        assert format_bytes(value) == expected

    def test_negative_counts_keep_sign_and_unit(self):
        assert format_bytes(-512) == "-512 B"
        assert format_bytes(-2 * MB) == "-2.00 MB"

    def test_fractional_bytes_truncate(self):
        # Sub-byte values render as whole bytes (int truncation).
        assert format_bytes(0.9) == "0 B"
        assert format_bytes(100.7) == "100 B"

