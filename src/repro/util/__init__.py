"""repro.util — shared helpers: units, result records, table formatting."""

from .records import ResultRow, ResultTable, Series
from .units import (
    GB,
    KB,
    MB,
    format_bytes,
    format_time,
    mbps,
    microseconds,
    milliseconds,
)

__all__ = [
    "GB",
    "KB",
    "MB",
    "ResultRow",
    "ResultTable",
    "Series",
    "format_bytes",
    "format_time",
    "mbps",
    "microseconds",
    "milliseconds",
]
