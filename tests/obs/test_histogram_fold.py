"""Differential oracle for the registry histogram's fold-on-read.

The tracer's hot paths record a histogram observation as one append to
its ``pending`` array, and every reader folds the pending values in
first.  The reference below is the histogram's recording as it was
before the pending array: every value updates the buckets, ``count``,
``total``, ``min`` and ``max`` on the spot.  It writes into a real
:class:`Histogram` whose ``pending`` stays empty, so both sides answer
through the same reader code, and what is compared is exactly the
recording and the fold.

Generated programs interleave public ``observe`` calls and hot-path
appends (through a ``recorder()`` cached once, as the hot paths cache
it) with one reader at a time — ``mean``, ``quantile``, ``snapshot``,
the registry's ``collect``, ``snapshot`` and ``histogram()`` lookup, a
``pickle`` round trip and ``copy.deepcopy`` — so a reader that skipped
its fold would answer from stale fields.  Values fall on and beside
every bucket bound, at both signed zeros, in overflow and at ``+inf``,
and include values whose running sums round differently in any other
order.  Every answer must agree bit for bit (``total`` by
``float.hex``, ``min``/``max`` with the sign of zero), and a
histogram's pickle bytes must equal the eager one's.
"""

import copy
import math
import pickle

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.metrics import COUNT_BUCKETS, Histogram, MetricsRegistry

DEEP = settings.get_profile("deep")
#: The deep profile when it was asked for, a derandomised tier-1 budget
#: otherwise.
PROFILE = (DEEP if settings.default is DEEP
           else settings(max_examples=150, deadline=None, derandomize=True))

#: Two ladders: the small-count one (a bound at 0.0, where the signed
#: zeros tie) and one with a negative bound.
LADDERS = {"count": COUNT_BUCKETS, "signed": (-1.0, 0.0, 0.1, 1.0, 1e3)}
#: ``(name, ladder, method label)`` of every histogram a program uses.
METRICS = (("poll_batch", "count", "mpl"), ("poll_batch", "count", "tcp"),
           ("rsr_phase_us", "signed", "mpl"))
BOUNDS = sorted({bound for ladder in LADDERS.values() for bound in ladder})

#: Values whose running sums round differently in any other order.
INEXACT = (0.1, 0.2, 0.3, 0.7, 1e16, -1e16, 3.0)


# -- the reference: today's eager observe -----------------------------------

def eager_observe(hist, value):
    """``Histogram.observe``'s body before the pending array."""
    hist.counts[_bisect_left(hist.bounds, value)] += 1
    hist.count += 1
    hist.total += value
    if hist.min_value is None or value < hist.min_value:
        hist.min_value = value
    if hist.max_value is None or value > hist.max_value:
        hist.max_value = value


def _bisect_left(bounds, value):
    index = 0
    while index < len(bounds) and bounds[index] < value:
        index += 1
    return index


class Side:
    """One registry holding the program's histograms, created in the
    same order on both sides."""

    def __init__(self):
        self.registry = MetricsRegistry()
        self.hists = [self.lookup(index) for index in range(len(METRICS))]
        # What the hot paths cache: the recorder, resolved once.
        self.appends = [hist.recorder() for hist in self.hists]

    def lookup(self, index):
        name, ladder, method = METRICS[index]
        return self.registry.histogram(name, LADDERS[ladder], method=method)


# -- programs --------------------------------------------------------------

@st.composite
def values(draw):
    """A value on or beside a bucket bound, a signed zero, overflow,
    ``+inf``, one whose sums round, or any."""
    bound = draw(st.sampled_from(BOUNDS))
    return draw(st.one_of(
        st.just(bound),
        st.just(math.nextafter(bound, -math.inf)),
        st.just(math.nextafter(bound, math.inf)),
        st.sampled_from((0.0, -0.0, 1e6, 1e300, math.inf)),
        st.sampled_from(INEXACT),
        st.floats(-1e4, 1e12, allow_nan=False, allow_infinity=False)))


READERS = ("mean", "quantile", "snapshot", "collect",
           "registry_snapshot", "lookup", "pickle", "deepcopy")


@st.composite
def programs(draw):
    metric = st.integers(0, len(METRICS) - 1)
    op = st.one_of(
        st.tuples(st.just("observe"), metric, values()),
        st.tuples(st.just("append"), metric, values()),
        st.tuples(st.just("append"), metric, values()),
        st.tuples(st.just("read"), metric, st.sampled_from(READERS)))
    return draw(st.lists(op, max_size=60))


def fields(hist):
    """A histogram's stored state as exact text, read without folding
    (``float.hex`` and ``repr`` tell ``-0.0`` from ``0.0``)."""
    return (list(hist.counts), hist.count, float.hex(hist.total),
            repr(hist.min_value), repr(hist.max_value))


def _exact(value):
    return float.hex(value) if isinstance(value, float) else repr(value)


def read(side, index, reader):
    """One reader's answer for histogram ``index``, as exact text."""
    hist = side.hists[index]
    if reader == "mean":
        return _exact(hist.mean)
    if reader == "quantile":
        return [_exact(hist.quantile(q)) for q in (0.0, 0.5, 0.95, 1.0)]
    if reader == "snapshot":
        return repr(hist.snapshot())
    if reader == "collect":
        return [(name, labels, fields(metric))
                for name, labels, metric in side.registry.collect()]
    if reader == "registry_snapshot":
        return repr(side.registry.snapshot())
    if reader == "lookup":
        return fields(side.lookup(index))
    if reader == "pickle":
        blob = pickle.dumps(hist, protocol=pickle.HIGHEST_PROTOCOL)
        return blob, fields(pickle.loads(blob))
    assert reader == "deepcopy"
    return fields(copy.deepcopy(hist))


def run(program):
    folded, eager = Side(), Side()
    for kind, index, arg in program:
        if kind == "observe":
            folded.hists[index].observe(arg)
            eager_observe(eager.hists[index], arg)
        elif kind == "append":
            folded.appends[index](arg)
            eager_observe(eager.hists[index], arg)
        else:
            assert read(folded, index, arg) == read(eager, index, arg), arg
    for index in range(len(METRICS)):
        for reader in READERS:
            assert (read(folded, index, reader)
                    == read(eager, index, reader)), reader
    for hist in folded.hists:
        assert len(hist.pending) == 0


@PROFILE
@given(programs())
# Sums that a builtin ``sum``/``math.fsum`` or a reordered fold would
# round differently: appended, then observed on top of the pending ones.
@example([("append", 2, value) for value in INEXACT]
         + [("observe", 2, 0.1), ("read", 2, "mean")])
@example([("append", 2, value) for value in INEXACT[:3]]
         + [("read", 2, "snapshot")])
# Signed zeros: min and max keep the first of equal values.
@example([("append", 0, 0.0), ("append", 0, -0.0), ("read", 0, "snapshot"),
          ("append", 1, -0.0), ("observe", 1, 0.0), ("read", 1, "lookup")])
# Every reader asked while values are pending.
@example([op for reader in READERS
          for op in (("append", 2, 0.1), ("append", 2, 0.2),
                     ("read", 2, reader))])
def test_fold_matches_eager_observe_bit_for_bit(program):
    run(program)


def test_pickled_histogram_has_the_eager_bytes_and_no_pending():
    folded, eager = Side(), Side()
    for value in (*INEXACT, 0.0, -0.0, 1e300, math.inf):
        folded.appends[2](value)
        eager_observe(eager.hists[2], value)
    blob = pickle.dumps(folded.registry, protocol=pickle.HIGHEST_PROTOCOL)
    assert blob == pickle.dumps(eager.registry,
                                protocol=pickle.HIGHEST_PROTOCOL)
    assert b"pending" not in blob
    clone = pickle.loads(blob).histogram(
        "rsr_phase_us", LADDERS["signed"], method="mpl")
    clone.recorder()(0.5)
    eager_observe(eager.hists[2], 0.5)
    assert clone.snapshot() == eager.hists[2].snapshot()


def test_fold_empties_pending_in_place():
    """A cached recorder stays valid across folds."""
    hist = Histogram("h", (), (1.0,))
    append = hist.recorder()
    assert hist.recorder().__self__ is append.__self__
    append(0.5)
    assert hist.count == 0
    assert hist.mean == 0.5
    append(2.0)
    assert (hist.count, hist.counts, list(hist.pending)) == (1, [1, 0], [2.0])
    hist.fold()
    assert (hist.count, hist.counts, list(hist.pending)) == (2, [1, 1], [])
