"""Wall-clock benchmark tier: how fast does the *simulator* run?

Everything else in :mod:`repro.bench` measures simulated time, which is
deterministic and gated exactly.  This tier measures the orthogonal
quantity — host wall-clock throughput of the discrete-event kernel and
the Nexus hot path — so that a change which preserves simulated results
byte-for-byte but halves real-world speed still shows up.

Method (documented in EXPERIMENTS.md):

* each artefact is executed (run, render, check) ``runs`` times
  back-to-back without printing, timing each repetition with
  ``time.perf_counter()``;
* simulator events per repetition are counted via
  :func:`repro.obs.watching_runtimes`, which registers every Nexus
  created during the run *without* enabling tracing — so the counted
  run is exactly the run being timed;
* the record stores the median, p10, and p90 wall seconds (median is
  the headline: robust to one-off scheduler stalls) plus
  ``events_per_sec`` = events / median wall.  Event counts are
  deterministic, so ``sim_events`` doubles as a cheap behavioural
  checksum alongside the wall numbers.

Wall metrics are noisy by nature; the gate applies them only with the
generous :data:`~repro.bench.record.WALL_TOLERANCE` band (and only when
asked), while sim metrics keep their exact gate.
"""

from __future__ import annotations

import time
import typing as _t

from .. import obs as _obs
from . import Artefact, RunOptions
from .record import (
    DIR_HIGHER,
    DIR_NONE,
    KIND_COUNT,
    KIND_WALL,
    BenchRecord,
)

#: Repetitions per artefact.  Pinned so baseline and current runs use
#: identical methodology; override with ``--runs``.
DEFAULT_WALL_RUNS = 5


def _percentile(ordered: _t.Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of an already-sorted sample."""
    if not ordered:
        raise ValueError("empty sample")
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


class WallMeasurement:
    """Wall timings and event counts for one artefact."""

    __slots__ = ("artefact", "walls", "events")

    def __init__(self, artefact: str, walls: _t.Sequence[float],
                 events: int):
        self.artefact = artefact
        self.walls = sorted(walls)
        #: Simulator events per repetition (identical across repetitions
        #: by determinism; taken from the last one).
        self.events = events

    @property
    def median(self) -> float:
        return _percentile(self.walls, 0.5)

    @property
    def p10(self) -> float:
        return _percentile(self.walls, 0.1)

    @property
    def p90(self) -> float:
        return _percentile(self.walls, 0.9)

    @property
    def events_per_sec(self) -> float:
        return self.events / self.median if self.median > 0 else 0.0

    def summary(self) -> str:
        line = (f"{self.artefact}: median {self.median:.3f}s "
                f"(p10 {self.p10:.3f}s, p90 {self.p90:.3f}s, "
                f"n={len(self.walls)})")
        if self.events:
            line += (f", {self.events} events, "
                     f"{self.events_per_sec:,.0f} events/s")
        return line


def measure_artefact(artefact: Artefact, options: RunOptions, *,
                     runs: int = DEFAULT_WALL_RUNS) -> WallMeasurement:
    """Time ``runs`` repetitions of :meth:`Artefact.execute`.

    The rendered text is dropped, so the timed loop does not measure
    terminal I/O.  Each repetition rebuilds its runtimes from scratch
    with the same seeds, so every repetition processes the identical
    event sequence.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    walls: list[float] = []
    events = 0
    for _ in range(runs):
        with _obs.watching_runtimes() as watched:
            started = time.perf_counter()
            artefact.execute(options)
            walls.append(time.perf_counter() - started)
        events = sum(nexus.sim.events_processed for nexus in watched)
    return WallMeasurement(artefact.name, walls, events)


def record_wall(record: BenchRecord, measurement: WallMeasurement) -> None:
    """Store one artefact's wall tier metrics.

    ``wall_median_s`` and ``events_per_sec`` carry gating directions;
    the spread percentiles are context only (direction ``none``), and
    ``sim_events`` is a deterministic count gated like any other count.
    """
    artefact = measurement.artefact
    record.add(artefact, "wall_median_s", measurement.median, unit="s",
               kind=KIND_WALL)
    record.add(artefact, "wall_p10_s", measurement.p10, unit="s",
               kind=KIND_WALL, direction=DIR_NONE)
    record.add(artefact, "wall_p90_s", measurement.p90, unit="s",
               kind=KIND_WALL, direction=DIR_NONE)
    if measurement.events:
        record.add(artefact, "events_per_sec", measurement.events_per_sec,
                   unit="events/s", kind=KIND_WALL, direction=DIR_HIGHER)
        record.add(artefact, "sim_events", measurement.events,
                   unit="events", kind=KIND_COUNT)


__all__ = [
    "DEFAULT_WALL_RUNS",
    "WallMeasurement",
    "measure_artefact",
    "record_wall",
]
