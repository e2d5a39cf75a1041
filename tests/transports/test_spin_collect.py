"""Differential oracle for ``FastTransport.spin_collect``.

``stepwise_spin`` is the receive loop ``raw_transport_pingpong`` used to
carry: one ``Timeout`` per nonzero cost, then a drain, every iteration.
It is the executable specification; ``spin_collect`` must reach the same
clock readings bit for bit while processing a constant number of events
per message.  Both run the same generated script — message sizes and
spacing, spin costs (either one zero), when the spin starts relative to
the arrivals (already drained, queued and draining, not yet arrived),
foreign-poll stalls pushing deliverability later mid-spin, and another
method's arrivals waking the sleeping spin early.

Stall and wake-up instants carry a sub-nanosecond offset while every
cost is a whole number of nanoseconds, so they cannot tie with a poll
instant: which of two same-instant events runs first is the one thing
the elided spin does not promise to reproduce.  Arrivals *can* tie with
poll instants; that case is harmless and stays in.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.apps.pingpong import raw_transport_pingpong
from repro.testbeds import make_sp2
from repro.transports import costmodels
from repro.transports.base import InTransitMessage, WireMessage
from repro.transports.costmodels import DEFAULT_COSTS, MPL_COSTS
from repro.transports.errors import TransportError
from repro.transports.fastbase import _READY_SLACK, FastTransport

NS = 1e-9
#: Keeps stall/wake-up instants off the whole-nanosecond poll grid.
OFF_GRID = 0.37e-9


def stepwise_spin(transport, context, loop_cost):
    """The reference: poll every ``loop_cost + poll_cost`` until a poll
    delivers, one event per nonzero cost."""
    sim = transport.sim
    poll_cost = transport.costs.poll_cost
    while True:
        if loop_cost > 0:
            yield sim.timeout(loop_cost)
        if poll_cost > 0:
            yield sim.timeout(poll_cost)
        messages = transport.collect(context)
        if messages:
            return messages


def elided_spin(transport, context, loop_cost):
    return transport.spin_collect(context, loop_cost)


@dataclasses.dataclass(frozen=True)
class Script:
    loop_cost: float
    poll_cost: float
    #: (gap before the send, wire bytes) per message.
    messages: tuple = ((0.0, 8),)
    #: When the receiver starts its first spin.
    start: float = 0.0
    #: Receiver-side work between two spins.
    think: float = 0.0
    overlap: float = 0.8
    #: (gap, seconds added to ``foreign_poll_total``) per stall.
    stalls: tuple = ()
    #: Gaps between ``note_arrival`` calls made on another method's behalf.
    wakeups: tuple = ()
    send_overhead: float = MPL_COSTS.send_overhead
    latency: float = MPL_COSTS.latency


def play(script, spin):
    """Run ``script`` with ``spin`` as the receive loop; everything the
    two implementations must agree on, plus the event count."""
    bed = make_sp2(
        nodes_a=2, nodes_b=0, transports=("local", "mpl"),
        costs=dataclasses.replace(
            DEFAULT_COSTS,
            transports={**DEFAULT_COSTS.transports, "mpl": dataclasses.replace(
                MPL_COSTS, poll_cost=script.poll_cost,
                send_overhead=script.send_overhead, latency=script.latency)},
            runtime=dataclasses.replace(DEFAULT_COSTS.runtime,
                                        select_drain_overlap=script.overlap)))
    nexus, sim = bed.nexus, bed.sim
    src = nexus.context(bed.hosts_a[0], "src", methods=("local", "mpl"))
    me = nexus.context(bed.hosts_a[1], "me", methods=("local", "mpl"))
    transport = nexus.transports.get("mpl")
    spins = []

    def sender():
        state = {}
        descriptor = transport.export_descriptor(me)
        for index, (gap, nbytes) in enumerate(script.messages):
            yield sim.timeout(gap)
            yield from transport.send(src, state, descriptor, WireMessage(
                handler="raw", endpoint_id=index, src_context=src.id,
                dst_context=me.id, payload=None, nbytes=nbytes))

    def receiver():
        yield sim.timeout(script.start)
        received = 0
        while received < len(script.messages):
            messages = yield from spin(transport, me, script.loop_cost)
            spins.append((sim.now, [(message.endpoint_id, message.arrived_at)
                                    for message in messages]))
            received += len(messages)
            yield sim.timeout(script.think)

    def staller():
        for gap, seconds in script.stalls:
            yield sim.timeout(gap + OFF_GRID)
            me.foreign_poll_total += seconds

    def waker():
        for gap in script.wakeups:
            yield sim.timeout(gap + OFF_GRID)
            me.note_arrival()

    done = nexus.spawn(receiver())
    for process in (sender, staller, waker):
        nexus.spawn(process())
    nexus.run_until(done)
    return (sim.now, spins), sim.events_processed


def assert_same(script):
    reference, stepwise_events = play(script, stepwise_spin)
    elided, elided_events = play(script, elided_spin)
    assert elided == reference  # floats compared exactly
    return stepwise_events, elided_events


# -- generated scripts ---------------------------------------------------------

def nanoseconds(lo, hi):
    return st.integers(lo, hi).map(lambda n: n * NS)


# Nothing under 0.5 us: the stepwise reference pays two events per
# iteration, and the scripts span several milliseconds.
costs = st.one_of(
    st.tuples(nanoseconds(500, 40_000), nanoseconds(500, 40_000)),
    st.tuples(st.just(0.0), nanoseconds(500, 40_000)),
    st.tuples(nanoseconds(500, 40_000), st.just(0.0)),
)

scripts = st.builds(
    lambda cost_pair, **fields: Script(*cost_pair, **fields),
    costs,
    messages=st.lists(
        st.tuples(nanoseconds(0, 400_000), st.integers(1, 60_000)),
        min_size=1, max_size=5).map(tuple),
    # Sends take 25 us + 30 us of latency: a start inside 0-1.5 ms lands
    # before the first arrival, mid-drain, and after everything drained.
    start=nanoseconds(0, 1_500_000),
    think=nanoseconds(0, 60_000),
    overlap=st.sampled_from((0.0, 0.5, 0.8, 1.0)),
    stalls=st.lists(
        st.tuples(nanoseconds(0, 300_000), nanoseconds(0, 400_000)),
        max_size=6).map(tuple),
    wakeups=st.lists(nanoseconds(0, 300_000), max_size=4).map(tuple),
)


@settings(max_examples=300, deadline=None)
@given(scripts)
def test_elided_spin_matches_the_stepwise_loop(script):
    assert_same(script)


# -- the named cases, pinned ---------------------------------------------------

ONE_US = 1000 * NS
SPIN = dict(loop_cost=ONE_US, poll_cost=15 * ONE_US)
#: One 64 KiB message: sent at 25 us, at the device at 55 us, drained
#: ~1.8 ms later.
BIG = ((0.0, 65_536),)
#: Dyadic costs add without rounding, so the arrival at 8 + 12 = 20
#: ticks is exactly poll instant 5 of the 1 + 3 tick grid.
TICK = 2.0 ** -20
ON_GRID = dict(loop_cost=TICK, poll_cost=3 * TICK,
               send_overhead=8 * TICK, latency=12 * TICK)


@pytest.mark.parametrize("script", [
    pytest.param(Script(**SPIN, messages=BIG, start=0.0),
                 id="not-yet-arrived"),
    pytest.param(Script(**SPIN, messages=BIG, start=400 * ONE_US),
                 id="queued-still-draining"),
    pytest.param(Script(**SPIN, messages=BIG, start=5000 * ONE_US),
                 id="already-drained"),
    pytest.param(Script(loop_cost=0.0, poll_cost=15 * ONE_US, messages=BIG),
                 id="no-loop-cost"),
    pytest.param(Script(loop_cost=ONE_US, poll_cost=0.0, messages=BIG),
                 id="no-poll-cost"),
    pytest.param(Script(**SPIN, messages=BIG, overlap=0.0,
                        stalls=((100 * ONE_US, 300 * ONE_US),
                                (900 * ONE_US, 700 * ONE_US))),
                 id="stalled-mid-drain"),
    pytest.param(Script(**SPIN, messages=BIG,
                        wakeups=(10 * ONE_US, 5 * ONE_US, 700 * ONE_US)),
                 id="other-method-wakes-first"),
    pytest.param(Script(**SPIN, think=40 * ONE_US,
                        messages=((0.0, 4096), (0.0, 64), (0.0, 200_000),
                                  (300 * ONE_US, 8))),
                 id="burst-then-straggler"),
    pytest.param(Script(**ON_GRID, messages=((0.0, 1),)),
                 id="arrival-ties-with-a-poll-instant"),
])
def test_named_cases(script):
    stepwise_events, elided_events = assert_same(script)
    assert elided_events <= stepwise_events


def test_events_do_not_grow_with_wire_time():
    def events(nbytes):
        return assert_same(Script(**SPIN, messages=((0.0, nbytes),)))

    small_stepwise, small_elided = events(8)
    large_stepwise, large_elided = events(262_144)
    assert large_stepwise > 20 * small_stepwise
    assert large_elided == small_elided


@settings(max_examples=12, deadline=None)
@given(size=st.integers(0, 200_000), roundtrips=st.integers(1, 6))
def test_raw_pingpong_elapsed_matches_the_stepwise_loop(size, roundtrips):
    def measure():
        with obs.watching_runtimes() as watched:
            result = raw_transport_pingpong(size, roundtrips)
        return result.elapsed, watched[0].sim.now

    elided = measure()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FastTransport, "spin_collect", stepwise_spin)
        reference = measure()
    assert elided == reference


# -- what the spin refuses -----------------------------------------------------

def test_costless_spin_is_refused():
    script = Script(loop_cost=0.0, poll_cost=0.0)
    with pytest.raises(TransportError, match="never advance"):
        play(script, elided_spin)


def test_message_drained_on_arrival_is_refused():
    """A zero-byte message is deliverable the instant it arrives; with
    the arrival on a poll instant the stepwise loop's answer would hang
    on same-instant event order, so the spin raises rather than pick
    one."""
    script = Script(**ON_GRID, messages=((0.0, 0),))
    with pytest.raises(TransportError, match="zero time"):
        play(script, elided_spin)


@pytest.mark.parametrize("name", sorted(
    name for name in dir(costmodels)
    if isinstance(getattr(costmodels, name), costmodels.TransportCosts)))
def test_every_cost_model_drains_a_byte_slower_than_the_slack(name):
    """The invariant the refusal above guards: no model in the catalogue
    drains even one byte within the readiness slack, so an arriving
    message is never deliverable at its own arrival instant."""
    assert 1 / getattr(costmodels, name).bandwidth > 1000 * _READY_SLACK


def test_deliverable_at_is_the_documented_formula():
    bed = make_sp2(nodes_a=1, nodes_b=0, transports=("local", "mpl"),
                   costs=dataclasses.replace(DEFAULT_COSTS, runtime=(
                       dataclasses.replace(DEFAULT_COSTS.runtime,
                                           select_drain_overlap=0.75))))
    transport = bed.nexus.transports.get("mpl")
    transit = InTransitMessage(message=None, arrival_start=1.0,
                               ready_at=3.0, foreign_at_arrival=10.0)
    assert transport.deliverable_at(transit, 10.0) == 3.0
    assert transport.deliverable_at(transit, 18.0) == 3.0 + 0.25 * 8.0
