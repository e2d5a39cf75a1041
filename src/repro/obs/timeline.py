"""Time-windowed telemetry: fixed-interval sim-time buckets.

The span/metrics substrate answers "what happened over the whole run";
this module answers *when*.  A :class:`Timeline` carves deterministic
simulation time into fixed-interval windows and accumulates, per window,

* **counters** — RSRs issued, delivered per method, delivered per rank,
  dropped per method — and
* **fixed-bucket latency histograms** — end-to-end RSR latency per
  method (plus a merged ``all`` series) and per-phase durations —

so a transient SLO violation inside an outage window, a diurnal peak, or
the recovery lag after a fault clears are all visible instead of being
averaged away by the end-of-run aggregates.

Semantics follow the rest of :mod:`repro.obs`:

* **Deterministic.**  Window indices are ``int(now / interval)`` of the
  simulation clock; series keys are plain strings (``method=tcp``,
  ``phase=wire/tcp``, ``rank=2`` with ranks densely numbered by first
  touch); exports are sorted-key JSON — identical runs produce
  byte-identical documents.
* **Empty is n/a, not zero.**  A window in which a histogram series saw
  no samples yields ``None`` from :meth:`Timeline.quantile_series` /
  :meth:`Timeline.mean_series` — "no data" is distinct from "measured
  0.0", exactly like ``PollStats.hit_rate``.  Counter series fill 0.0
  (zero events genuinely happened).
* **One append per observation.**  Recording appends ``(now, value)``
  to the series' column (an ``array('d')``, created on first touch);
  the tracer's hot paths hold their columns next to the registry
  histograms' ``recorder()`` they already cache, so a closed span
  costs one pending append plus one ``extend`` (the registry folds on
  read too: :meth:`repro.obs.metrics.Histogram.fold`).  Every reader
  first *folds* the columns into window cells and empties them.  The
  fold is exact: windows are ``(t / interval).astype(int64)`` (the
  same IEEE division and truncation as ``int(now / interval)``),
  buckets are ``searchsorted(bounds, v, side="left")``
  (``bisect_left``), and ``count``/``sum``/``min``/``max`` and counter
  values accumulate one value at a time in observation order,
  continuing from the cell — never a pairwise or compensated sum.  The
  one visible difference from updating cells as values arrive is the
  ``max_windows`` cap: it is applied column by column (in
  column-creation order), then window by window (in first-touch
  order).
"""

from __future__ import annotations

import typing as _t
from array import array

import numpy as np

from ..util.document import DocumentError, Schema, write
from .metrics import Histogram, LATENCY_BUCKETS_US, validated_bounds

TIMELINE_SCHEMA = "repro.obs.timeline"
TIMELINE_SCHEMA_VERSION = 1

#: Series names the timeline records from the span tracer.
SERIES_ISSUED = "rsr_issued"
SERIES_DELIVERED = "rsr_delivered"
SERIES_DROPPED = "rsr_dropped"
SERIES_LATENCY = "rsr_latency_us"
SERIES_PHASE = "rsr_phase_us"

#: Key of the merged (all methods) latency series.
KEY_ALL = "all"

#: A series' unfolded observations: ``t0, v0, t1, v1, ...``.
Column = array


class Timeline:
    """Fixed-interval windowed counters and histograms over sim time.

    One instance per :class:`~repro.obs.spans.Observability`, created by
    :meth:`~repro.obs.spans.Observability.enable_timeline`.  Window
    ``w`` covers sim time ``[w * interval, (w + 1) * interval)``;
    windows exist only once touched, so idle stretches cost nothing and
    drain phases extend the timeline naturally.
    """

    __slots__ = ("interval", "bounds", "max_windows", "_truncated",
                 "_counters", "_hists", "_counter_cols", "_hist_cols",
                 "_rank_cols", "_windows", "_ranks", "_search")

    def __init__(self, interval: float, *,
                 bounds: _t.Sequence[float] = LATENCY_BUCKETS_US,
                 max_windows: int = 1_000_000):
        if interval <= 0:
            raise ValueError(f"timeline interval must be > 0, "
                             f"got {interval!r}")
        self.interval = float(interval)
        self.bounds = validated_bounds(bounds)
        self._search = np.array(self.bounds, dtype=np.float64)
        #: Cap on distinct (series, window) histogram cells; excess
        #: observations are counted, never silently lost.
        self.max_windows = max_windows
        self._truncated = 0
        #: Folded window cells, one dict per series in column-creation
        #: order.
        self._counters: dict[tuple[str, str], dict[int, float]] = {}
        self._hists: dict[tuple[str, str], dict[int, Histogram]] = {}
        #: Unfolded observations, one column per series.
        self._counter_cols: dict[tuple[str, str], Column] = {}
        self._hist_cols: dict[tuple[str, str], Column] = {}
        self._rank_cols: dict[int, Column] = {}
        #: Total histogram cells allocated (for the max_windows cap).
        self._windows = 0
        #: Raw context id -> dense rank number, in first-touch order
        #: (deterministic within a run, stable across identical runs).
        self._ranks: dict[int, int] = {}

    # -- recording -----------------------------------------------------------

    def window_of(self, now: float) -> int:
        return int(now / self.interval)

    def window_end(self, index: int) -> float:
        return (index + 1) * self.interval

    def rank_of(self, ctx: int) -> int:
        """Dense rank id for a raw context id (assigned on first touch)."""
        rank = self._ranks.get(ctx)
        if rank is None:
            rank = len(self._ranks)
            self._ranks[ctx] = rank
        return rank

    def counter_column(self, name: str, key: str) -> Column:
        """The column ``inc`` appends ``(now, amount)`` to."""
        column = self._counter_cols.get((name, key))
        if column is None:
            column = self._counter_cols[(name, key)] = array("d")
            self._counters[(name, key)] = {}
        return column

    def histogram_column(self, name: str, key: str) -> Column:
        """The column ``observe`` appends ``(now, value)`` to."""
        column = self._hist_cols.get((name, key))
        if column is None:
            column = self._hist_cols[(name, key)] = array("d")
            self._hists[(name, key)] = {}
        return column

    def inc(self, name: str, key: str, now: float,
            amount: float = 1.0) -> None:
        self.counter_column(name, key).extend((now, amount))

    def observe(self, name: str, key: str, now: float,
                value: float) -> None:
        self.histogram_column(name, key).extend((now, value))

    # The series the span tracer records, spelled once for the live
    # hooks (repro.obs.spans) and the spool replay (repro.obs.stream).

    def issued_column(self) -> Column:
        """RSRs issued (``inc`` at the issue span's start)."""
        return self.counter_column(SERIES_ISSUED, KEY_ALL)

    def phase_column(self, phase: str, lane: str) -> Column:
        """Span durations (µs) of one phase on one lane, at close."""
        return self.histogram_column(SERIES_PHASE, f"phase={phase}/{lane}")

    def delivery_columns(self, lane: str) -> tuple[Column, Column, Column]:
        """``(latency of method=<lane>, latency of all, delivered on
        method=<lane>)`` — what one delivery on ``lane`` appends to."""
        method_key = f"method={lane}"
        return (self.histogram_column(SERIES_LATENCY, method_key),
                self.histogram_column(SERIES_LATENCY, KEY_ALL),
                self.counter_column(SERIES_DELIVERED, method_key))

    def rank_column(self, ctx: int) -> Column:
        """Deliveries at the context ``ctx`` (its dense ``rank=<n>``)."""
        column = self._rank_cols.get(ctx)
        if column is None:
            column = self._rank_cols[ctx] = self.counter_column(
                SERIES_DELIVERED, f"rank={self.rank_of(ctx)}")
        return column

    def dropped_column(self, lane: str) -> Column:
        """Messages dropped on ``lane``."""
        return self.counter_column(SERIES_DROPPED, f"method={lane}")

    # -- folding -------------------------------------------------------------

    def _fold(self) -> None:
        """Drain every non-empty column into its window cells."""
        for key, column in self._counter_cols.items():
            if column:
                self._fold_counter(self._counters[key], column)
        for key, column in self._hist_cols.items():
            if column:
                self._fold_histogram(key, self._hists[key], column)

    def _drain(self, column: Column) -> tuple[list[int], np.ndarray]:
        """Window indices and values of ``column``'s observations, which
        it no longer holds."""
        data = np.array(column, dtype=np.float64)
        del column[:]
        windows = (data[0::2] / self.interval).astype(np.int64)
        return windows.tolist(), data[1::2]

    def _fold_counter(self, series: dict[int, float],
                      column: Column) -> None:
        windows, values = self._drain(column)
        window = windows[0]
        value = series.get(window, 0.0)
        for now_window, amount in zip(windows, values.tolist()):
            if now_window != window:
                series[window] = value
                window = now_window
                value = series.get(window, 0.0)
            value += amount
        series[window] = value

    def _fold_histogram(self, key: tuple[str, str],
                        series: dict[int, Histogram],
                        column: Column) -> None:
        windows, values = self._drain(column)
        buckets = np.searchsorted(self._search, values, side="left").tolist()
        labels = (("key", key[1]),)
        hist: Histogram | None = None
        window: int | None = None
        for now_window, bucket, value in zip(windows, buckets,
                                             values.tolist()):
            if now_window != window:
                window = now_window
                hist = series.get(window)
                if hist is None and self._windows < self.max_windows:
                    hist = series[window] = Histogram.trusted(
                        key[0], labels, self.bounds)
                    self._windows += 1
            if hist is None:
                self._truncated += 1
                continue
            # Histogram.observe's body, bucket already searched: no call
            # per value.
            hist.counts[bucket] += 1
            hist.count += 1
            hist.total += value
            if hist.min_value is None or value < hist.min_value:
                hist.min_value = value
            if hist.max_value is None or value > hist.max_value:
                hist.max_value = value

    # -- queries -------------------------------------------------------------

    @property
    def truncated(self) -> int:
        """Observations dropped by the ``max_windows`` cap."""
        self._fold()
        return self._truncated

    def keys(self, name: str) -> list[str]:
        """Sorted keys recorded under ``name`` (counters or histograms)."""
        self._fold()
        found = {key for (n, key) in self._counters if n == name}
        found |= {key for (n, key) in self._hists if n == name}
        return sorted(found)

    def window_range(self) -> tuple[int, int] | None:
        """(first, last) touched window index, or None when empty."""
        self._fold()
        lo: int | None = None
        hi: int | None = None
        for series in (*self._counters.values(), *self._hists.values()):
            for window in series:
                if lo is None or window < lo:
                    lo = window
                if hi is None or window > hi:
                    hi = window
        if lo is None or hi is None:
            return None
        return lo, hi

    def _span(self, lo: int | None, hi: int | None) -> tuple[int, int]:
        self._fold()
        if lo is None or hi is None:
            full = self.window_range()
            if full is None:
                return 0, -1
            lo = full[0] if lo is None else lo
            hi = full[1] if hi is None else hi
        return lo, hi

    def counter_series(self, name: str, key: str, *,
                       lo: int | None = None,
                       hi: int | None = None) -> list[float]:
        """Per-window counter values over [lo, hi]; untouched windows
        are 0.0 — zero events genuinely occurred."""
        lo, hi = self._span(lo, hi)
        series = self._counters.get((name, key), {})
        return [series.get(w, 0.0) for w in range(lo, hi + 1)]

    def counter_total_series(self, name: str, *, prefix: str = "",
                             lo: int | None = None,
                             hi: int | None = None) -> list[float]:
        """Sum of every ``name`` counter series whose key starts with
        ``prefix``, per window (e.g. delivered across all methods)."""
        lo, hi = self._span(lo, hi)
        totals = [0.0] * max(hi - lo + 1, 0)
        for (n, key), series in self._counters.items():
            if n != name or not key.startswith(prefix):
                continue
            for window, value in series.items():
                if lo <= window <= hi:
                    totals[window - lo] += value
        return totals

    def quantile_series(self, name: str, key: str, q: float, *,
                        lo: int | None = None,
                        hi: int | None = None) -> list[float | None]:
        """Per-window quantiles; a window with no samples yields
        ``None`` (n/a) — never 0.0."""
        lo, hi = self._span(lo, hi)
        series = self._hists.get((name, key), {})
        return [series[w].quantile(q) if w in series else None
                for w in range(lo, hi + 1)]

    def mean_series(self, name: str, key: str, *,
                    lo: int | None = None,
                    hi: int | None = None) -> list[float | None]:
        """Per-window means; empty windows are ``None`` (n/a)."""
        lo, hi = self._span(lo, hi)
        series = self._hists.get((name, key), {})
        return [series[w].mean if w in series else None
                for w in range(lo, hi + 1)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Timeline interval={self.interval} "
                f"counters={len(self._counters)} "
                f"histograms={len(self._hists)}>")


# -- export ------------------------------------------------------------------

def timeline_document(timeline: Timeline, *,
                      meta: _t.Mapping[str, object] | None = None
                      ) -> dict[str, object]:
    """The timeline as a JSON-ready, deterministic document.

    Window indices serialise as string keys (JSON objects); counter
    values and histogram snapshots ride under their series name and key.
    ``meta`` is carried verbatim (scenario name, seed, fault log, ...).
    """
    timeline._fold()
    counters: dict[str, dict[str, dict[str, float]]] = {}
    for (name, key), series in timeline._counters.items():
        counters.setdefault(name, {})[key] = {
            str(window): value for window, value in series.items()}
    histograms: dict[str, dict[str, dict[str, object]]] = {}
    for (name, key), series in timeline._hists.items():
        histograms.setdefault(name, {})[key] = {
            str(window): {
                "counts": list(hist.counts),
                "count": hist.count,
                "sum": hist.total,
                "min": hist.min_value,
                "max": hist.max_value,
            }
            for window, hist in series.items()}
    window_range = timeline.window_range()
    return {
        "schema": TIMELINE_SCHEMA,
        "schema_version": TIMELINE_SCHEMA_VERSION,
        "interval_s": timeline.interval,
        "bounds": list(timeline.bounds),
        "windows": (None if window_range is None
                    else {"lo": window_range[0], "hi": window_range[1]}),
        "truncated": timeline.truncated,
        "counters": counters,
        "histograms": histograms,
        "meta": dict(meta) if meta else {},
    }


def write_timeline(path: str, timeline: Timeline, *,
                   meta: _t.Mapping[str, object] | None = None) -> None:
    write(path, timeline_document(timeline, meta=meta))


def _validate(document: _t.Mapping[str, object],
              path: str | None = None) -> dict[str, object]:
    """Structural + invariant checks over a timeline export."""
    interval = document.get("interval_s")
    if not isinstance(interval, (int, float)) or interval <= 0:
        raise DocumentError(f"interval_s must be positive, got {interval!r}")
    bounds = document.get("bounds")
    if not isinstance(bounds, list) or bounds != sorted(bounds):
        raise DocumentError("bounds must be a sorted list")
    counters = document.get("counters")
    histograms = document.get("histograms")
    if not isinstance(counters, dict) or not isinstance(histograms, dict):
        raise DocumentError("counters/histograms sections missing")
    windows = document.get("windows")
    if windows is not None and not (
            isinstance(windows, dict)
            and isinstance(windows.get("lo"), int)
            and isinstance(windows.get("hi"), int)):
        raise DocumentError("windows must be null or {lo, hi}")
    samples = 0
    for name, series in histograms.items():
        for key, per_window in _t.cast(dict, series).items():
            for window, snapshot in _t.cast(dict, per_window).items():
                where = f"histogram {name}/{key}@{window}"
                counts = _t.cast(dict, snapshot).get("counts")
                count = _t.cast(dict, snapshot).get("count")
                if not isinstance(counts, list) or sum(counts) != count:
                    raise DocumentError(
                        f"{where}: bucket counts do not sum to count")
                if len(counts) != len(bounds) + 1:
                    raise DocumentError(
                        f"{where}: expected {len(bounds) + 1} buckets, "
                        f"got {len(counts)}")
                samples += _t.cast(int, count)
    return {"counter_series": sum(len(_t.cast(dict, s))
                                  for s in counters.values()),
            "histogram_series": sum(len(_t.cast(dict, s))
                                    for s in histograms.values()),
            "histogram_samples": samples}


DOCUMENT = Schema(TIMELINE_SCHEMA, TIMELINE_SCHEMA_VERSION, _validate,
                  "timeline")


__all__ = [
    "DOCUMENT",
    "KEY_ALL",
    "SERIES_DELIVERED",
    "SERIES_DROPPED",
    "SERIES_ISSUED",
    "SERIES_LATENCY",
    "SERIES_PHASE",
    "TIMELINE_SCHEMA",
    "TIMELINE_SCHEMA_VERSION",
    "Timeline",
    "timeline_document",
    "write_timeline",
]
