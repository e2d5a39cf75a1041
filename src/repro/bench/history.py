"""Bench-run history: an append-only JSONL ledger of wall-tier records.

A single wall-clock run is a noisy sample; CI machines jitter by tens
of percent.  Instead of widening the fixed tolerance until the gate is
toothless, ``--append-history PATH`` accumulates every wall-tier record
as one JSON line, and :func:`wall_bands` turns the accumulated runs
into per-metric acceptance bands — ``median ± k * IQR`` over the
history, floored at a small relative width so a perfectly stable metric
does not gate on scheduler noise.  ``compare_records`` then gates wall
metrics against their band instead of the flat ``--wall-tolerance``.

The ledger is plain JSONL so it survives partial writes (a truncated
trailing line is skipped, not fatal) and diffs/greps cleanly.
"""

from __future__ import annotations

import json
import math
import os
import typing as _t

from ..util.document import COMPACT
from .record import KIND_WALL

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

#: Bands need this many historical runs before they gate; below it the
#: spread estimate is meaningless and the flat tolerance applies.
MIN_RUNS = 5

#: Band half-width: ``k * IQR``, floored at ``REL_FLOOR * |median|``.
DEFAULT_K = 3.0
REL_FLOOR = 0.05


def append_history(path: str, document: _t.Mapping[str, object]) -> None:
    """Append one record document as a single compact JSON line.

    Safe under concurrent writers (parallel fleet tasks appending to a
    shared ledger): the whole line is serialised first, the descriptor
    is opened ``O_APPEND``, an exclusive ``flock`` is held for the
    write, and the line goes out in a **single** ``os.write`` — so two
    appenders can interleave whole lines but never fragments of them.
    On filesystems without ``flock`` the single atomic append write is
    still the interleaving guarantee.
    """
    data = (json.dumps(document, **COMPACT) + "\n").encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        if fcntl is not None:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX)
            except OSError:
                pass  # lock-free filesystem: O_APPEND still holds
        os.write(fd, data)
    finally:
        os.close(fd)


def load_history(path: str) -> list[dict[str, object]]:
    """Load every parseable record line (skipping truncated tails)."""
    records: list[dict[str, object]] = []
    try:
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    document = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(document, dict) and "artefacts" in document:
                    records.append(document)
    except OSError:
        return []
    return records


def _wall_samples(history: _t.Sequence[_t.Mapping[str, object]]
                  ) -> dict[tuple[str, str], list[float]]:
    samples: dict[tuple[str, str], list[float]] = {}
    for document in history:
        artefacts = document.get("artefacts")
        if not isinstance(artefacts, dict):
            continue
        for artefact, body in artefacts.items():
            metrics = body.get("metrics", {})
            for name, metric in metrics.items():
                if metric.get("kind") != KIND_WALL:
                    continue
                value = metric.get("value")
                if isinstance(value, (int, float)) and math.isfinite(value):
                    samples.setdefault((artefact, name),
                                       []).append(float(value))
    return samples


def _median(values: _t.Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _quartiles(values: _t.Sequence[float]) -> tuple[float, float]:
    ordered = sorted(values)
    mid = len(ordered) // 2
    lower = ordered[:mid]
    upper = ordered[mid + (len(ordered) % 2):]
    return _median(lower), _median(upper)


def wall_bands(history: _t.Sequence[_t.Mapping[str, object]], *,
               k: float = DEFAULT_K, min_runs: int = MIN_RUNS
               ) -> dict[tuple[str, str], tuple[float, float]]:
    """Per-metric ``(lo, hi)`` acceptance bands from accumulated runs.

    ``median ± k * max(IQR, REL_FLOOR * |median|)`` per wall metric with
    at least ``min_runs`` samples; metrics with fewer samples get no
    band (the caller's flat tolerance applies to them).
    """
    bands: dict[tuple[str, str], tuple[float, float]] = {}
    for key, values in _wall_samples(history).items():
        if len(values) < min_runs:
            continue
        median = _median(values)
        q1, q3 = _quartiles(values)
        half = k * max(q3 - q1, REL_FLOOR * abs(median))
        bands[key] = (median - half, median + half)
    return bands


__all__ = [
    "DEFAULT_K",
    "MIN_RUNS",
    "REL_FLOOR",
    "append_history",
    "load_history",
    "wall_bands",
]
