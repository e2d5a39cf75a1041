"""Differential oracle for the traced emit path.

A traced event — a span close, a delivery, a drop — is one record in
the tracer's sink, and the registry's histograms and the timeline's
columns are folded from the records when they are read; a traced poll
miss is one more ``zeros`` on ``poll_batch``.  The reference
(``reference_emit.py``) is the tracer as it was before: every event
updated the registry and the timeline at once, and a miss appended
``0.0``.

Generated programs open and close spans over several phases and lanes
(issue spans, message chains through ``transition``, multicast forks,
retry/failover/probe spans), finish chains with and without a context
(a fork made at capacity has no span), drop, abandon and retire them,
poll lanes that hold mail and lanes that do not, attach a timeline at
the start, mid-run or twice (with a ``max_windows`` cap small enough to
bind), and read the registry and the timelines mid-run — snapshots,
``collect``, a lookup, ``len``, documents, pickle round trips — over a
:class:`SpanLog` (capped or not) or a :class:`SpanSpool` (plain or
``reservoir:2``).  Every read, the final registry snapshot, every
timeline document and every spool byte must equal the reference's.
"""

import os
import pickle
import tempfile
import types

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.polling import PollManager
from repro.obs.metrics import COUNT_BUCKETS
from repro.obs.spans import (
    PHASE_DISPATCH,
    PHASE_ENQUEUE,
    PHASE_FAILOVER,
    PHASE_FORWARD,
    PHASE_HANDLER,
    PHASE_MARSHAL,
    PHASE_POLL_DETECT,
    PHASE_PROBE,
    PHASE_RETRY,
    PHASE_WIRE,
    Observability,
)
from repro.obs.stream import SpanSpool, StreamConfig
from repro.obs.timeline import timeline_document
from repro.util.document import dumps

from .reference_emit import (ReferenceObservability, reference_batch,
                             reference_miss)

DEEP = settings.get_profile("deep")
#: The deep profile when it was asked for, a derandomised tier-1 budget
#: otherwise.
PROFILE = (DEEP if settings.default is DEEP
           else settings(max_examples=120, deadline=None, derandomize=True))

STEPS = (PHASE_MARSHAL, PHASE_ENQUEUE, PHASE_WIRE, PHASE_POLL_DETECT,
         PHASE_FORWARD, PHASE_DISPATCH, PHASE_HANDLER)
RECOVERY = (PHASE_RETRY, PHASE_FAILOVER, PHASE_PROBE)
LANES = ("mpl", "tcp", "udp")
#: Clock steps, some landing on the window edges of the intervals.
STEPS_S = (0.0, 1e-4, 2.5e-4, 5e-4, 1e-3, 3e-3)
INTERVALS = (1e-4, 5e-4, 2e-3)
SINKS = ("log", "log-capped", "spool", "reservoir:2")
READS = ("snapshot", "collect", "lookup", "len", "timelines",
         "pickle-registry", "pickle-timelines", "spans")
#: Resident spans a capped log holds before it drops the rest.
CAP = 7

index = st.integers(0, 40)
OPS = st.one_of(
    st.tuples(st.just("begin"), st.integers(0, 3), st.integers(1, 2)),
    st.tuples(st.just("issued"), index),
    st.tuples(st.just("step"), index, st.sampled_from(STEPS),
              st.integers(0, 3), st.none() | st.sampled_from(LANES)),
    st.tuples(st.just("step"), index, st.sampled_from(STEPS),
              st.integers(0, 3), st.none() | st.sampled_from(LANES)),
    st.tuples(st.just("fork"), index, st.integers(0, 3),
              st.sampled_from(LANES)),
    st.tuples(st.just("finish"), index, st.booleans()),
    st.tuples(st.just("drop"), index),
    st.tuples(st.just("abandon"), index),
    st.tuples(st.just("retire"), index),
    st.tuples(st.just("recover"), index, st.sampled_from(RECOVERY),
              st.sampled_from(LANES)),
    st.tuples(st.just("close"), index),
    st.tuples(st.just("advance"), st.sampled_from(STEPS_S)),
    st.tuples(st.just("poll"), st.sampled_from(LANES), st.integers(0, 3)),
    st.tuples(st.just("read"), st.sampled_from(READS)),
    st.tuples(st.just("timeline"), st.sampled_from(INTERVALS),
              st.integers(1, 6)))
PROGRAMS = st.lists(OPS, max_size=70)


def _pick(items, position):
    return items[position % len(items)] if items else None


class Side:
    """One tracer running a program: the current one or the reference."""

    def __init__(self, tracer, sink, directory):
        self.sim = types.SimpleNamespace(_now=0.0)
        self.reference = tracer is ReferenceObservability
        self.obs = tracer(self.sim, enabled=True,
                          max_spans=CAP if sink == "log-capped"
                          else 1_000_000)
        self.spool = None
        if sink in ("spool", "reservoir:2"):
            self.spool = SpanSpool(StreamConfig(
                directory=directory, max_records=7, seed=3,
                policy=None if sink == "spool" else sink)).attach(self.obs)
        self.traces = []
        self.issues = []
        self.loose = []
        self.timelines = []
        self.batches = {}

    def attach_timeline(self, interval, cap):
        timeline = self.obs.enable_timeline(interval)
        timeline.max_windows = cap
        self.timelines.append(timeline)

    def poll(self, method, found):
        """A traced poll firing ``method``'s lane: ``found`` messages,
        0 for a lane that holds no mail."""
        if self.reference:
            append = self.batches.get(method)
            if append is None:
                append = self.batches[method] = reference_batch(self.obs,
                                                                method)
            if found:
                append(float(found))
            else:
                reference_miss(append)
            return
        lane = self.batches.get(method)
        if lane is None:
            lane = self.batches[method] = types.SimpleNamespace(
                method=method, batch=None)
        # PollManager.poll/wait's lines, with its resolution helper.
        manager = types.SimpleNamespace(context=types.SimpleNamespace(
            nexus=types.SimpleNamespace(obs=self.obs)))
        if found:
            (lane.batch or PollManager._batch(manager, lane)).pending.append(
                float(found))
        else:
            (lane.batch or PollManager._batch(manager, lane)).zeros += 1

    def read(self, what):
        obs = self.obs
        if what == "snapshot":
            return repr(obs.metrics.snapshot())
        if what == "collect":
            return repr([(name, labels, metric.snapshot())
                         for name, labels, metric in obs.metrics.collect()])
        if what == "lookup":
            return repr(obs.metrics.histogram("rsr_latency_us",
                                              method="mpl").snapshot())
        if what == "len":
            return len(obs.metrics)
        if what == "timelines":
            return [dumps(timeline_document(timeline))
                    for timeline in self.timelines]
        if what == "pickle-registry":
            return repr(pickle.loads(pickle.dumps(obs.metrics)).snapshot())
        if what == "pickle-timelines":
            return [dumps(timeline_document(pickle.loads(pickle.dumps(tl))))
                    for tl in self.timelines]
        assert what == "spans"
        return ([(span.id, span.end) for span in obs.spans], obs.overhead())

    def run(self, op):
        kind, *args = op
        obs = self.obs
        if kind == "begin":
            ctx, links = args
            issue = obs.rsr_begin(ctx, "h", links)
            if issue is not None:
                self.issues.append(issue)
                for _ in range(links):
                    message = types.SimpleNamespace(trace=None)
                    obs.attach(message, issue)
                    self.traces.append(message.trace)
        elif kind == "issued":
            issue = _pick([span for span in self.issues if span.end is None],
                          args[0])
            if issue is not None:
                obs.close_span(issue)
        elif kind == "step":
            trace = _pick(self.traces, args[0])
            if trace is not None:
                trace.transition(args[1], ctx=args[2], lane=args[3])
        elif kind == "fork":
            trace = _pick(self.traces, args[0])
            if trace is not None:
                self.traces.append(trace.fork(args[1], args[2]))
        elif kind == "finish":
            trace = _pick(self.traces, args[0])
            if trace is not None:
                trace.finish(self.sim._now, threaded=args[1])
        elif kind in ("drop", "abandon", "retire"):
            trace = _pick(self.traces, args[0])
            if trace is not None:
                if kind == "drop":
                    trace.drop()
                elif kind == "abandon":
                    trace.abandon("refused")
                else:
                    trace.retire()
        elif kind == "recover":
            issue = _pick(self.issues, args[0])
            if issue is not None:
                span = obs.open_span(args[1], rsr=issue.rsr, ctx=issue.ctx,
                                     lane=args[2], parent=issue.id)
                if span is not None:
                    self.loose.append(span)
        elif kind == "close":
            span = _pick([span for span in self.loose if span.end is None],
                         args[0])
            if span is not None:
                obs.close_span(span)
        elif kind == "advance":
            self.sim._now += args[0]
        elif kind == "poll":
            self.poll(*args)
        elif kind == "read":
            return self.read(args[0])
        else:
            assert kind == "timeline"
            self.attach_timeline(*args)
        return None

    def finish(self):
        """Everything a run leaves: the final reads and the spool."""
        reads = [self.read(what) for what in READS]
        files = {}
        if self.spool is not None:
            self.spool.finalize()
            for name in sorted(os.listdir(self.spool.directory)):
                with open(os.path.join(self.spool.directory, name),
                          "rb") as handle:
                    files[name] = handle.read()
            reads.append(self.read("timelines"))
        return reads, files


def run(program, sink, start):
    with tempfile.TemporaryDirectory() as root:
        sides = [Side(tracer, sink, os.path.join(root, name))
                 for tracer, name in ((Observability, "current"),
                                      (ReferenceObservability, "reference"))]
        if start is not None:
            for side in sides:
                side.attach_timeline(*start)
        for number, op in enumerate(program):
            current, reference = (side.run(op) for side in sides)
            assert current == reference, (number, op)
        current, reference = (side.finish() for side in sides)
    assert current[0] == reference[0]
    assert current[1] == reference[1]


#: A delivery chain over two lanes, read mid-run, under a binding cap.
CHAIN = [("begin", 1, 2), ("step", 0, PHASE_MARSHAL, 1, "mpl"),
         ("advance", 2.5e-4), ("step", 0, PHASE_WIRE, 1, None),
         ("step", 1, PHASE_WIRE, 1, "tcp"), ("issued", 0),
         ("advance", 1e-3), ("step", 0, PHASE_DISPATCH, 2, None),
         ("read", "timelines"), ("finish", 0, False), ("advance", 1e-3),
         ("finish", 1, True), ("poll", "mpl", 0), ("poll", "mpl", 2),
         ("read", "snapshot")]


@PROFILE
@given(program=PROGRAMS, sink=st.sampled_from(SINKS),
       start=st.none() | st.tuples(st.sampled_from(INTERVALS),
                                   st.integers(1, 6)))
@example(program=CHAIN, sink="log", start=(1e-4, 2))
@example(program=CHAIN, sink="spool", start=None)
# A timeline attached mid-run, then replaced, an issue span open across
# both attaches and reads.
@example(program=[("begin", 0, 1), ("advance", 5e-4),
                  ("timeline", 1e-4, 3), ("begin", 2, 1),
                  ("read", "timelines"), ("advance", 5e-4),
                  ("step", 0, PHASE_WIRE, 0, "udp"), ("issued", 0),
                  ("timeline", 5e-4, 6), ("issued", 0),
                  ("finish", 1, False), ("drop", 0), ("read", "len"),
                  ("read", "pickle-timelines")],
         sink="reservoir:2", start=None)
# A fork at capacity: the child's chain has no span, so its delivery
# no context; recovery spans beside it.
@example(program=[("begin", 3, 1), ("step", 0, PHASE_ENQUEUE, 3, "tcp"),
                  ("recover", 0, PHASE_RETRY, "tcp"), ("close", 0),
                  ("fork", 0, 1, "mpl"), ("fork", 0, 2, "mpl"),
                  ("fork", 0, 3, "udp"), ("fork", 0, 0, "udp"),
                  ("advance", 1e-4), ("finish", 4, False),
                  ("abandon", 0), ("retire", 1), ("read", "collect")],
         sink="log-capped", start=(5e-4, 1))
def test_emit_matches_eager_recording(program, sink, start):
    run(program, sink, start)


def test_a_miss_is_a_zero_in_the_first_bucket():
    """``zeros`` fold as the ``0.0`` appends they replace: the count and
    the bucket of 0.0 grow, ``min`` becomes 0.0 and ``sum`` stays."""
    obs = Observability(types.SimpleNamespace(_now=0.0), enabled=True)
    hist = obs.metrics.histogram("poll_batch", COUNT_BUCKETS, method="tcp")
    hist.unfolded().append(3.0)
    hist.zeros += 2
    snapshot = obs.metrics.histogram("poll_batch", COUNT_BUCKETS,
                                     method="tcp").snapshot()
    assert (snapshot["count"], snapshot["counts"][0], snapshot["sum"],
            snapshot["min"], snapshot["max"]) == (3, 2, 3.0, 0.0, 3.0)
    assert hist.zeros == 0 and len(hist.pending) == 0
