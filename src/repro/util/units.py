"""Units and human-readable formatting.

Internally everything is SI base units: seconds and bytes (bandwidth in
bytes/second).  These helpers exist so cost-model constants in
:mod:`repro.transports.costmodels` read like the numbers in the paper
("36 MB/sec", "15 microseconds", "2 milliseconds").  A cost field
declares its unit with :func:`unit`, and :func:`dilate` scales by them.
"""

from __future__ import annotations

import dataclasses
import typing as _t

#: Bytes multipliers (paper-era convention: 1 MB = 2**20 bytes).
KB = 1024
MB = 1024 * 1024
GB = 1024 * 1024 * 1024


def microseconds(x: float) -> float:
    """``x`` microseconds expressed in seconds."""
    return x * 1e-6


def milliseconds(x: float) -> float:
    """``x`` milliseconds expressed in seconds."""
    return x * 1e-3


def mbps(x: float) -> float:
    """``x`` megabytes/second expressed in bytes/second."""
    return x * MB


#: Units a float cost field declares: seconds, seconds per byte, bytes
#: per second, dimensionless.
UNITS = ("s", "s/B", "B/s", "1")


def unit(symbol: str, default: object = dataclasses.MISSING) -> _t.Any:
    """A dataclass field whose metadata declares its unit ``symbol``."""
    return dataclasses.field(default=default, metadata={"unit": symbol})


def dilate(obj: _t.Any, k: float) -> _t.Any:
    """The dataclass ``obj`` with its ``s`` and ``s/B`` fields x ``k`` and
    its ``B/s`` fields / ``k``: every simulated time then scales by ``k``."""
    changes = {}
    for field in dataclasses.fields(obj):
        symbol, value = field.metadata.get("unit"), getattr(obj, field.name)
        if symbol in ("s", "s/B"):
            changes[field.name] = value * k
        elif symbol == "B/s":
            changes[field.name] = value / k
    return dataclasses.replace(obj, **changes)


def format_time(seconds: float) -> str:
    """Render a duration with an appropriate unit."""
    if seconds == 0:
        return "0 s"
    magnitude = abs(seconds)
    if magnitude >= 1.0:
        return f"{seconds:.3f} s"
    if magnitude >= 1e-3:
        return f"{seconds * 1e3:.3f} ms"
    if magnitude >= 1e-6:
        return f"{seconds * 1e6:.1f} us"
    return f"{seconds * 1e9:.1f} ns"


def format_bytes(nbytes: float) -> str:
    """Render a byte count with an appropriate unit."""
    if abs(nbytes) >= GB:
        return f"{nbytes / GB:.2f} GB"
    if abs(nbytes) >= MB:
        return f"{nbytes / MB:.2f} MB"
    if abs(nbytes) >= KB:
        return f"{nbytes / KB:.2f} KB"
    return f"{int(nbytes)} B"
