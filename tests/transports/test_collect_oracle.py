"""Differential oracle for the receive drains.

``reference_collect`` is the loop ``FastTransport.collect`` used to run:
test the queue's head with ``deliverable_at``, ``pop(0)`` it, stamp
``arrived_at``, ``append`` its message, repeat.  It is the executable
specification; the sliced drain must return the same messages, stamp the
same ``arrived_at`` values, leave the same queue behind and stamp nothing
it did not deliver, on generated device queues whose transits sit on
either side of the readiness slack, under any ``foreign_poll_total`` and
``select_drain_overlap``.  ``Store.drain`` is held the same way to a
``popleft`` loop over interleaved puts and drains.
"""

import collections
import dataclasses
import types

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simnet import Simulator, Store
from repro.testbeds import make_sp2
from repro.transports.base import InTransitMessage, WireMessage
from repro.transports.costmodels import DEFAULT_COSTS
from repro.transports.fastbase import _READY_SLACK

DEEP = settings.get_profile("deep")
#: The deep profile when it was asked for, the tier-1 budget otherwise.
PROFILE = (DEEP if settings.default is DEEP
           else settings(max_examples=150, deadline=None, derandomize=True))

#: ``arrived_at`` of a message no drain has delivered.
UNSET = -1.0


def reference_collect(transport, context, queue):
    """The former drain: one ``pop(0)`` and one ``append`` per message."""
    now = transport.sim._now
    foreign_now = context.foreign_poll_total
    ready = []
    while queue:
        transit = queue[0]
        if now + _READY_SLACK < transport.deliverable_at(transit, foreign_now):
            break
        queue.pop(0)
        transit.message.arrived_at = now
        ready.append(transit.message)
    return ready


#: Offsets of a transit's deliverability from the poll instant: on the
#: slack boundary, just inside and outside it, and well clear of it.
EDGES = (0.0, _READY_SLACK, _READY_SLACK / 2, 2 * _READY_SLACK,
         -_READY_SLACK, -1e-9, 1e-9, 1e-6, -1e-6)
TIMES = st.floats(min_value=0.0, max_value=1e-2, allow_nan=False)


@st.composite
def drains(draw):
    """``(now, foreign_total, overlap, transits)``: each transit is
    ``(ready_at, foreign_at_arrival, nbytes)``, its ready time either
    free or placed at one of ``EDGES`` from the poll instant."""
    now = draw(TIMES)
    foreign_total = draw(st.sampled_from([0.0, 1e-4]) | TIMES)
    overlap = draw(st.sampled_from([0.0, 0.8, 1.0])
                   | st.floats(min_value=0.0, max_value=1.0))
    transits = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        stalled = draw(st.sampled_from([0.0, 1.0])
                       | st.floats(min_value=0.0, max_value=1.0))
        foreign_at = foreign_total * (1.0 - stalled)
        ready_at = draw(TIMES | st.sampled_from(EDGES).map(
            lambda edge: now + edge))
        nbytes = draw(st.integers(min_value=0, max_value=1 << 16))
        transits.append((ready_at, foreign_at, nbytes))
    return now, foreign_total, overlap, tuple(transits)


def receiver(now, foreign_total, overlap):
    """An MPL transport and a receiving context whose clock reads ``now``."""
    bed = make_sp2(nodes_a=1, nodes_b=0, transports=("local", "mpl"),
                   costs=dataclasses.replace(
                       DEFAULT_COSTS, runtime=dataclasses.replace(
                           DEFAULT_COSTS.runtime,
                           select_drain_overlap=overlap)))
    context = bed.nexus.context(bed.hosts_a[0], methods=("local", "mpl"))
    bed.sim.run(until=bed.sim.timeout(now))
    assert bed.sim._now == now
    context.foreign_poll_total = foreign_total
    return bed.nexus.transports.get("mpl"), context


def device_queue(transits):
    """A fresh device queue holding ``transits``, messages unstamped."""
    return [InTransitMessage(
        message=WireMessage(handler="h", endpoint_id=index, src_context=0,
                            dst_context=0, payload=None, nbytes=nbytes,
                            arrived_at=UNSET),
        arrival_start=0.0, ready_at=ready_at, foreign_at_arrival=foreign_at)
        for index, (ready_at, foreign_at, nbytes) in enumerate(transits)]


def outcome(delivered, queue, every):
    """What a drain must agree on: each delivered message and its
    ``arrived_at``, what stays queued, and every message's stamp."""
    return ([(m.endpoint_id, m.arrived_at) for m in delivered],
            [(t.message.endpoint_id, t.ready_at, t.foreign_at_arrival)
             for t in queue],
            [(t.message.endpoint_id, t.message.arrived_at) for t in every])


@PROFILE
@given(drains())
@example((0.0, 0.0, 0.8, ((0.0, 0.0, 8),)))
@example((1e-3, 0.0, 0.8, ((1e-3 + _READY_SLACK, 0.0, 8),
                           (1e-3 + 2 * _READY_SLACK, 0.0, 8))))
@example((1e-3, 2e-4, 0.5, ((5e-4, 0.0, 8), (5e-4, 2e-4, 8),
                            (2e-3, 2e-4, 8), (5e-4, 2e-4, 8))))
def test_sliced_collect_matches_the_pop_loop(case):
    now, foreign_total, overlap, transits = case
    transport, context = receiver(now, foreign_total, overlap)

    expected_queue = device_queue(transits)
    expected_every = list(expected_queue)
    expected = reference_collect(transport, context, expected_queue)

    queue = device_queue(transits)
    every = list(queue)
    lane = types.SimpleNamespace(queue=queue, inbox=None)
    delivered = transport.collect(context, lane)

    assert (outcome(delivered, queue, every)
            == outcome(expected, expected_queue, expected_every))
    assert all(t.message.arrived_at == UNSET for t in every[len(delivered):])

    # Without a lane the transport finds the same queue at the context.
    queue = context._device_queues["mpl"] = device_queue(transits)
    every = list(queue)
    delivered = transport.collect(context)
    assert (outcome(delivered, queue, every)
            == outcome(expected, expected_queue, expected_every))


#: A Store program: an int puts that item, ``None`` drains.
STORE_OPS = st.lists(st.none() | st.integers(), max_size=30)


@PROFILE
@given(STORE_OPS)
@example([None, 1, 2, 3, None, None])
def test_store_drain_matches_a_popleft_loop(ops):
    sim = Simulator()
    store = Store(sim)
    reference = collections.deque()
    for op in ops:
        if op is None:
            expected = []
            while reference:
                expected.append(reference.popleft())
            assert store.drain() == expected
        else:
            store.put(op)
            reference.append(op)
    sim.run()
    assert list(store.items) == list(reference)
