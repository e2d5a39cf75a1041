"""Metrics registry: counters, gauges, and fixed-bucket histograms.

One registry per runtime (``nexus.obs.metrics``) holds everything it
counts.  Counters answer "how many" (RSRs sent, retries, connections)
whether or not the runtime observes; histograms answer *distributional*
questions — what is the p95 dispatch latency of MPL RSRs, how many
messages does a TCP poll typically find — while it observes, which is
what the paper's enquiry-function mandate ("evaluate the effectiveness
of automatic selection") actually needs.

Design constraints:

* **Deterministic.**  Metric identity is ``(name, sorted labels)``;
  iteration order is sorted at snapshot time, so identical runs produce
  identical snapshots byte for byte.
* **Fixed buckets.**  Histograms use a fixed upper-bound ladder chosen
  at creation (defaults suit microsecond latencies), so two runs always
  agree on bucket boundaries and snapshots merge trivially.
* **Cheap.**  ``inc`` is one add and ``observe`` a bisect plus a few
  adds; the tracer's hot paths pay less still: they hold a histogram's
  :meth:`~Histogram.recorder` and append one raw value per
  observation, which every reader folds in first
  (:meth:`Histogram.fold`).  The registry allocates only on first use
  of a ``(name, labels)`` pair; a counter bumped per message is held by
  its owner as a handle.
"""

from __future__ import annotations

import bisect
import typing as _t
from array import array

#: Default histogram ladder for latencies in microseconds: covers 1 µs
#: (local dispatch) to 10 s (WAN + heavy skip_poll detection delays).
LATENCY_BUCKETS_US: tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5, 2e5, 5e5, 1e6, 1e7,
)

#: Ladder for small counts (messages found per poll, queue depths).
COUNT_BUCKETS: tuple[float, ...] = (0.0, 1.0, 2.0, 3.0, 5.0, 10.0,
                                    20.0, 50.0, 100.0)

LabelItems = tuple[tuple[str, str], ...]


def _label_key(labels: _t.Mapping[str, object]) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def validated_bounds(bounds: _t.Sequence[float]) -> tuple[float, ...]:
    """``bounds`` as a tuple of floats; ``ValueError`` unless strictly
    increasing."""
    if list(bounds) != sorted(set(bounds)):
        raise ValueError(f"histogram bounds must be strictly "
                         f"increasing, got {bounds!r}")
    return tuple(float(b) for b in bounds)


class Counter:
    """A monotonically increasing integer count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot(self) -> dict[str, object]:
        return {"labels": dict(self.labels), "value": self.value}


class Gauge:
    """A point-in-time value; also tracks the high-water mark."""

    __slots__ = ("name", "labels", "value", "max_value")

    def __init__(self, name: str, labels: LabelItems):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self.max_value = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max_value:
            self.max_value = value

    def snapshot(self) -> dict[str, object]:
        return {"labels": dict(self.labels), "value": self.value,
                "max": self.max_value}


class Histogram:
    """Fixed-bucket histogram: counts of values ≤ each upper bound.

    ``bounds`` must be strictly increasing; values above the last bound
    land in an implicit overflow bucket.  Exact ``sum``/``min``/``max``
    are kept alongside the buckets so means are not quantised.

    :meth:`observe` updates the histogram on the spot.  A hot path
    instead caches :meth:`recorder` — the bound ``append`` of
    ``pending``, an ``array('d')`` emptied in place and never rebound,
    so the cached handle stays valid — and records one raw value per
    call; :meth:`fold` applies them, and every reader —
    ``mean``, :meth:`quantile`, :meth:`snapshot`, :meth:`observe`
    itself, the registry's ``histogram``/``collect``/``snapshot``,
    pickling and copying — folds first.  The plain attributes
    (``counts``, ``count``, ``total``, ``min_value``, ``max_value``) are
    current only after a fold.
    """

    # ``pending`` lives in the instance ``__dict__``, not in a slot: a
    # histogram no hot path records into — a timeline cell, one only
    # ever ``observe``d, one restored from a pickle or a copy (whose
    # state is exactly the eager one) — reads the class's empty tuple,
    # so unpickling stays the C-level slot restore and readers pay no
    # call.
    __slots__ = ("name", "labels", "bounds", "counts", "count", "total",
                 "min_value", "max_value", "__dict__")

    #: Raw values recorded but not yet folded, in observation order.
    pending: "array[float] | tuple[()]" = ()

    def __init__(self, name: str, labels: LabelItems,
                 bounds: _t.Sequence[float]):
        self._fill(name, labels, validated_bounds(bounds))

    @classmethod
    def trusted(cls, name: str, labels: LabelItems,
                bounds: tuple[float, ...]) -> "Histogram":
        """An empty histogram over ``bounds`` that the caller already
        passed through :func:`validated_bounds` (shared, not copied)."""
        hist = cls.__new__(cls)
        hist._fill(name, labels, bounds)
        return hist

    def _fill(self, name: str, labels: LabelItems,
              bounds: tuple[float, ...]) -> None:
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1: overflow
        self.count = 0
        self.total = 0.0
        self.min_value: float | None = None
        self.max_value: float | None = None

    def recorder(self) -> _t.Callable[[float], None]:
        """The hot paths' handle: ``pending.append``, recording one raw
        value that the next reader folds in."""
        pending = self.pending
        if not isinstance(pending, array):
            pending = self.pending = array("d")
        return pending.append

    def fold(self) -> None:
        """Apply the pending values, exactly as :meth:`observe` would
        have, one at a time, and empty ``pending`` in place.

        ``total`` accumulates in observation order (never a builtin
        ``sum`` or ``math.fsum``, whose rounding differs); the
        builtin ``min``/``max`` keep the first of equal values, as
        ``observe``'s strict comparisons do (``-0.0`` vs ``0.0``).  The
        buckets come from one sort: a value lands in bucket
        ``bisect_left(bounds, v)``, i.e. it is counted at the first
        bound it does not exceed, so each bucket is a difference of two
        ``bisect_right`` positions — a call per bound, none per value.
        """
        pending = self.pending
        if not pending:
            return
        total = self.total
        for value in pending:
            total += value
        self.total = total
        self.count += len(pending)
        low, high = min(pending), max(pending)
        if self.min_value is None or low < self.min_value:
            self.min_value = low
        if self.max_value is None or high > self.max_value:
            self.max_value = high
        ordered = sorted(pending)
        counts = self.counts
        below = 0
        for index, bound in enumerate(self.bounds):
            upto = bisect.bisect_right(ordered, bound, below)
            counts[index] += upto - below
            below = upto
        counts[-1] += len(ordered) - below
        del pending[:]

    def __getstate__(self) -> tuple[None, dict[str, object]]:
        # Folded, and without ``pending``: the state (and so the pickle
        # bytes) of a histogram that observed every value eagerly.
        if self.pending:
            self.fold()
        return None, {"name": self.name, "labels": self.labels,
                      "bounds": self.bounds, "counts": self.counts,
                      "count": self.count, "total": self.total,
                      "min_value": self.min_value,
                      "max_value": self.max_value}

    def observe(self, value: float) -> None:
        if self.pending:
            self.fold()
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min_value is None or value < self.min_value:
            self.min_value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value

    @property
    def mean(self) -> float | None:
        if self.pending:
            self.fold()
        return self.total / self.count if self.count else None

    def quantile(self, q: float) -> float | None:
        """Upper bound of the bucket containing the q-quantile (an
        over-estimate, exact for the overflow bucket's max)."""
        if self.pending:
            self.fold()
        if self.count == 0:
            return None
        target = q * self.count
        cumulative = 0
        for bound, bucket in zip(self.bounds, self.counts):
            cumulative += bucket
            # ``cumulative`` > 0: q = 0 names the first non-empty bucket.
            if cumulative >= target and cumulative:
                return bound
        return self.max_value

    def snapshot(self) -> dict[str, object]:
        if self.pending:
            self.fold()
        return {
            "labels": dict(self.labels),
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "min": self.min_value,
            "max": self.max_value,
        }


class MetricsRegistry:
    """Label-aware registry of counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, LabelItems], object] = {}

    def _get(self, kind: type, name: str, labels: dict[str, object],
             factory: _t.Callable[[], object]) -> object:
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory()
            self._metrics[key] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r}{dict(key[1])!r} already registered as "
                f"{type(metric).__name__}, requested {kind.__name__}"
            )
        return metric

    def counter(self, name: str, **labels: object) -> Counter:
        return _t.cast(Counter, self._get(
            Counter, name, labels,
            lambda: Counter(name, _label_key(labels))))

    def gauge(self, name: str, **labels: object) -> Gauge:
        return _t.cast(Gauge, self._get(
            Gauge, name, labels,
            lambda: Gauge(name, _label_key(labels))))

    def histogram(self, name: str,
                  bounds: _t.Sequence[float] = LATENCY_BUCKETS_US,
                  **labels: object) -> Histogram:
        hist = _t.cast(Histogram, self._get(
            Histogram, name, labels,
            lambda: Histogram(name, _label_key(labels), bounds)))
        if hist.pending:
            hist.fold()
        return hist

    def count(self, name: str, **labels: object) -> int:
        """The value of counter ``name``; 0, registering nothing, when
        it was never created."""
        metric = self._metrics.get((name, _label_key(labels)))
        return metric.value if isinstance(metric, Counter) else 0

    def collect(self, name: str | None = None
                ) -> list[tuple[str, LabelItems, object]]:
        """All metrics (optionally one name), deterministically sorted,
        every histogram folded."""
        items = []
        for key, metric in self._metrics.items():
            if name is None or key[0] == name:
                if metric.__class__ is Histogram and metric.pending:
                    metric.fold()
                items.append((key[0], key[1], metric))
        items.sort(key=lambda item: (item[0], item[1]))
        return items

    def snapshot(self) -> dict[str, list[dict[str, object]]]:
        """Plain-dict form of every metric, sorted, for export/report."""
        out: dict[str, list[dict[str, object]]] = {}
        for name, _labels, metric in self.collect():
            out.setdefault(name, []).append(
                _t.cast("Counter | Gauge | Histogram", metric).snapshot())
        return out

    def __len__(self) -> int:
        return len(self._metrics)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<MetricsRegistry metrics={len(self._metrics)}>"
