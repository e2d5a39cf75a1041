"""Differential oracle for the timeline's fold-on-read.

Recording appends ``(now, value)`` to a per-series column and every
reader folds the columns into window cells.  The reference below is the
timeline's recording as it was before the columns: every ``inc`` and
``observe`` updates its window cell on the spot.  The reference writes
into a real :class:`Timeline`'s cells and has no columns, so both sides
answer queries through the same reader code, and what is compared is
exactly the recording and the fold.

Generated programs interleave recording with queries (which fold
incrementally) and put times on and next to window edges and values on
and next to bucket bounds, at ``0.0`` and in overflow.  Every query
answer and the exported document must agree bit for bit.  The one
permitted difference, the ``max_windows`` cap, only shows when the cap
binds; it is pinned by a named case.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.metrics import Histogram
from repro.obs.timeline import (
    KEY_ALL,
    SERIES_DELIVERED,
    SERIES_LATENCY,
    Timeline,
    timeline_document,
)
from repro.util.document import dumps

DEEP = settings.get_profile("deep")
#: The deep profile when it was asked for, the tier-1 budget otherwise.
PROFILE = (DEEP if settings.default is DEEP
           else settings(max_examples=150, deadline=None))

BOUNDS = (0.0, 1.0, 2.0, 5.0, 10.0, 1e3)
NAMES = ("h", "c", SERIES_LATENCY, SERIES_DELIVERED)
KEYS = ("a", "b", KEY_ALL)
LANES = ("mpl", "tcp")


# -- the reference: today's eager recording ----------------------------------

def eager_inc(tl, name, key, now, amount=1.0):
    series = tl._counters.get((name, key))
    if series is None:
        series = tl._counters[(name, key)] = {}
    window = int(now / tl.interval)
    series[window] = series.get(window, 0.0) + amount


def eager_observe(tl, name, key, now, value):
    series = tl._hists.get((name, key))
    if series is None:
        series = tl._hists[(name, key)] = {}
    window = int(now / tl.interval)
    hist = series.get(window)
    if hist is None:
        if tl._windows >= tl.max_windows:
            tl._truncated += 1
            return
        hist = series[window] = Histogram(name, (("key", key),), tl.bounds)
        tl._windows += 1
    hist.observe(value)


def eager_deliver(tl, lane, ctx, now, latency_us):
    """``MessageTrace.finish``'s timeline recording before the columns."""
    method_key = f"method={lane}"
    eager_observe(tl, SERIES_LATENCY, method_key, now, latency_us)
    eager_observe(tl, SERIES_LATENCY, KEY_ALL, now, latency_us)
    eager_inc(tl, SERIES_DELIVERED, method_key, now)
    eager_inc(tl, SERIES_DELIVERED, f"rank={tl.rank_of(ctx)}", now)


def deliver(tl, lane, ctx, now, latency_us):
    latency, latency_all, delivered = tl.delivery_columns(lane)
    latency.extend((now, latency_us))
    latency_all.extend((now, latency_us))
    delivered.extend((now, 1.0))
    tl.rank_column(ctx).extend((now, 1.0))


# -- programs -----------------------------------------------------------------

@st.composite
def times(draw, interval):
    """A time on, just beside, or inside a window edge."""
    edge = draw(st.integers(0, 4)) * interval
    where = draw(st.sampled_from(("on", "below", "above", "inside")))
    if where == "below":
        return max(math.nextafter(edge, -math.inf), 0.0)
    if where == "above":
        return math.nextafter(edge, math.inf)
    if where == "inside":
        return edge + draw(st.floats(0.0, 1.0)) * interval
    return edge


#: Values whose running sums round differently in any other order.
INEXACT = (0.1, 0.2, 0.3, 0.7, 1e16, -1e16, 3.0)


@st.composite
def values(draw):
    """A value on or beside a bucket bound, a signed zero, overflow, one
    whose sums round, or any."""
    bound = draw(st.sampled_from(BOUNDS))
    return draw(st.one_of(
        st.just(bound),
        st.just(math.nextafter(bound, -math.inf)),
        st.just(math.nextafter(bound, math.inf)),
        st.sampled_from((0.0, -0.0, 1e6, 1e300)),
        st.sampled_from(INEXACT),
        st.floats(-1e4, 1e12, allow_nan=False, allow_infinity=False)))


@st.composite
def programs(draw):
    interval = draw(st.sampled_from((0.01, 0.1, 1 / 3, 0.25, 1e-3)))
    op = st.one_of(
        st.tuples(st.just("inc"), st.sampled_from(NAMES),
                  st.sampled_from(KEYS), times(interval),
                  st.one_of(st.just(1.0), values())),
        st.tuples(st.just("observe"), st.sampled_from(NAMES),
                  st.sampled_from(KEYS), times(interval), values()),
        st.tuples(st.just("deliver"), st.sampled_from(LANES),
                  st.integers(0, 3), times(interval), values()),
        st.tuples(st.just("query")))
    return interval, draw(st.lists(op, max_size=60))


def answers(tl):
    """Every query a timeline answers, as exact text (``repr`` tells
    ``-0.0`` from ``0.0``)."""
    out = [dumps(timeline_document(tl, meta={"m": 1})),
           repr(tl.window_range()), repr(tl.truncated)]
    for name in NAMES + ("absent",):
        out.append(repr(tl.keys(name)))
        for prefix in ("", "method=", "rank="):
            out.append(repr(tl.counter_total_series(name, prefix=prefix)))
        for key in KEYS + ("method=mpl", "method=tcp", "rank=0"):
            out.append(repr(tl.counter_series(name, key)))
            out.append(repr(tl.counter_series(name, key, lo=-1, hi=3)))
            out.append(repr(tl.mean_series(name, key)))
            for q in (0.0, 0.5, 0.99, 1.0):
                out.append(repr(tl.quantile_series(name, key, q)))
    return out


@PROFILE
@given(programs())
# Sums that a compensated or reordered fold would round differently.
@example((0.01, [(kind, name, key, 0.001, value)
                 for kind, name in (("observe", "h"), ("inc", "c"))
                 for key, sums in (("a", INEXACT), ("b", INEXACT[:3]))
                 for value in sums]))
# Signed zeros: min and max keep the first of equal values.
@example((0.01, [("observe", "h", "a", 0.001, 0.0),
                 ("observe", "h", "a", 0.002, -0.0),
                 ("observe", "h", "b", 0.001, -0.0),
                 ("observe", "h", "b", 0.002, 0.0),
                 ("inc", "c", "a", 0.001, -0.0)]))
def test_fold_matches_eager_recording_bit_for_bit(program):
    interval, ops = program
    folded = Timeline(interval, bounds=BOUNDS)
    eager = Timeline(interval, bounds=BOUNDS)
    for op in ops:
        kind = op[0]
        if kind == "inc":
            folded.inc(*op[1:])
            eager_inc(eager, *op[1:])
        elif kind == "observe":
            folded.observe(*op[1:])
            eager_observe(eager, *op[1:])
        elif kind == "deliver":
            deliver(folded, *op[1:])
            eager_deliver(eager, *op[1:])
        else:
            assert answers(folded) == answers(eager)
    assert answers(folded) == answers(eager)


def test_max_windows_cap_applies_by_column_then_window():
    """The cap rule: cells are granted column by column in the order the
    columns were created, then window by window in first-touch order —
    not in the global order the observations arrived."""
    folded = Timeline(0.01, bounds=(1.0,), max_windows=2)
    eager = Timeline(0.01, bounds=(1.0,), max_windows=2)
    program = [("x", 0.005), ("y", 0.005), ("x", 0.015), ("y", 0.015)]
    for key, now in program:
        folded.observe(SERIES_LATENCY, key, now, 0.5)
        eager_observe(eager, SERIES_LATENCY, key, now, 0.5)
    # Eager: each series keeps its first window; fold: column "x" takes
    # both cells before column "y" is folded.
    assert eager.mean_series(SERIES_LATENCY, "x") == [0.5]
    assert eager.mean_series(SERIES_LATENCY, "y") == [0.5]
    assert folded.mean_series(SERIES_LATENCY, "x") == [0.5, 0.5]
    assert folded.mean_series(SERIES_LATENCY, "y") == [None, None]
    assert folded.truncated == eager.truncated == 2
    assert folded.keys(SERIES_LATENCY) == eager.keys(SERIES_LATENCY)


def test_fold_drains_columns_and_continues_cells():
    tl = Timeline(0.01, bounds=(1.0,))
    column = tl.histogram_column(SERIES_LATENCY, KEY_ALL)
    tl.observe(SERIES_LATENCY, KEY_ALL, 0.001, 0.1)
    assert tl.mean_series(SERIES_LATENCY, KEY_ALL) == [0.1]
    assert len(column) == 0
    tl.observe(SERIES_LATENCY, KEY_ALL, 0.002, 0.2)
    cell = timeline_document(tl)["histograms"][SERIES_LATENCY][KEY_ALL]["0"]
    assert (cell["count"], cell["sum"]) == (2, 0.1 + 0.2)
