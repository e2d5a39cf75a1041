"""Tests for lazy event cancellation and the inlined run() loop.

These pin down the queue invariants the performance rewrite relies on:
cancelled entries are discarded without side effects, same-timestamp
FIFO batching preserves the (t, priority, seq) total order, peek()
never reports a dead event, and the ``run(until=event)`` finish
callback cannot leak into a later run.
"""

import pytest

from repro.simnet import Simulator
from repro.simnet.errors import EventError, SimnetError
from repro.simnet.events import LOW, URGENT


# -- Event.cancel semantics --------------------------------------------------

def test_cancel_scheduled_timeout(sim):
    timeout = sim.timeout(1.0)
    assert timeout.cancel() is True
    assert timeout.cancelled
    sim.run()
    assert sim.now == 0.0  # discarded without advancing the clock
    assert sim.events_processed == 0


def test_cancel_is_idempotent(sim):
    timeout = sim.timeout(1.0)
    assert timeout.cancel() is True
    assert timeout.cancel() is False  # second call reports "too late"


def test_cancel_after_processed_returns_false(sim):
    timeout = sim.timeout(1.0)
    sim.run()
    assert timeout.processed
    assert timeout.cancel() is False


def test_cancel_unscheduled_event_is_an_error(sim):
    event = sim.event()
    with pytest.raises(EventError, match="unscheduled"):
        event.cancel()


def test_cancelled_event_rejects_triggering(sim):
    event = sim.event()
    event.succeed("x")
    # Triggered-and-scheduled events can be cancelled before processing...
    assert event.cancel() is True
    sim.run()
    assert not event.processed
    # ...and a plain pending event cancels once scheduled via fail().
    other = sim.event()
    other.fail(RuntimeError("boom"))
    assert other.cancel() is True
    sim.run()  # the cancelled failure must NOT be re-raised


def test_cancelled_event_never_resumes_waiters(sim):
    resumed = []

    def waiter(event):
        yield event
        resumed.append(True)

    timeout = sim.timeout(1.0)
    sim.process(waiter(timeout))
    timeout.cancel()
    sim.run()
    assert resumed == []


# -- cancel storms and compaction --------------------------------------------

def test_cancel_storm_interleaved_with_live_timers(sim):
    """Many cancels among live timers: live ones all fire, in order."""
    fired = []

    def note(event):
        fired.append(sim.now)

    dead = []
    for i in range(250):
        keep = sim.timeout(float(4 * i + 1))
        keep.callbacks.append(note)
        dead.append(sim.timeout(float(4 * i + 2)))
        dead.append(sim.timeout(float(4 * i + 3)))
        dead.append(sim.timeout(float(4 * i + 4)))
    for victim in dead:
        victim.cancel()
    sim.run()
    assert fired == [float(4 * i + 1) for i in range(250)]
    assert sim.events_processed == 250  # cancelled entries never count
    # Cancelled entries were the majority, so the storm crossed the
    # compaction threshold mid-way; lazy deletion swept the remainder.
    assert sim._cancelled_count == 0
    assert not sim._heap


def test_cancel_storm_on_zero_delay_events(sim):
    """Zero-delay events share the one heap; cancelling them works there
    too, and the cancelled entries are all swept."""
    fired = []
    keepers = []
    for i in range(300):
        event = sim.event()
        event.succeed(i)
        if i % 3 == 0:
            keepers.append(i)
            event.callbacks.append(lambda e: fired.append(e.value))
        else:
            event.cancel()
    sim.run()
    assert fired == keepers
    assert sim._cancelled_count == 0


def test_compact_preserves_order_and_containers(sim):
    """_compact() must mutate the heap in place, not rebind it."""
    heap = sim._heap
    for i in range(200):
        sim.timeout(float(i + 1)).cancel()
    zero = sim.event().succeed("live")
    survivor = sim.timeout(5.0)
    sim._compact()
    assert sim._heap is heap
    assert [entry[3] for entry in heap] == [zero, survivor]
    assert sim._cancelled_count == 0


# -- peek() under lazy deletion ----------------------------------------------

def test_peek_skips_cancelled_heads(sim):
    early = sim.timeout(1.0)
    sim.timeout(2.0)
    assert sim.peek() == 1.0
    early.cancel()
    assert sim.peek() == 2.0  # dead head discarded, next live reported


def test_peek_all_cancelled_returns_inf(sim):
    for delay in (1.0, 2.0, 3.0):
        sim.timeout(delay).cancel()
    assert sim.peek() == float("inf")
    with pytest.raises(SimnetError, match="empty event queue"):
        sim.step()  # nothing live left to step


def test_peek_skips_a_cancelled_zero_delay_head(sim):
    """A zero-delay event heads the heap; once cancelled, peek reports
    the next live entry."""
    sim.timeout(1.0)
    zero = sim.event().succeed("now")
    assert sim.peek() == 0.0
    zero.cancel()
    assert sim.peek() == 1.0


# -- same-timestamp ordering -------------------------------------------------

def test_same_timestamp_fifo_across_sources(sim):
    """Equal-time events process in (priority, seq) order whether they
    were scheduled with a delay or triggered at that instant: all of
    them sit in the one heap."""
    order = []

    def note(tag):
        return lambda event: order.append(tag)

    # All at t=1.0: a delayed NORMAL (heap), a delayed URGENT (heap),
    # then zero-delay events created *at* t=1.0 by the first callback.
    first = sim.timeout(1.0)

    def spawn_zero_delay(event):
        order.append("heap-normal-1")
        a = sim.event()
        a.succeed(priority=URGENT)
        a.callbacks.append(note("deque-urgent"))
        b = sim.event()
        b.succeed()
        b.callbacks.append(note("deque-normal"))
        c = sim.event()
        c.succeed(priority=LOW)
        c.callbacks.append(note("heap-low"))

    first.callbacks.append(spawn_zero_delay)
    second = sim.timeout(1.0)
    second.callbacks.append(note("heap-normal-2"))
    sim.run()
    # URGENT beats NORMAL at equal time even though it was created
    # later; among equal priorities seq (creation order) rules, so the
    # heap's second timeout precedes the callback's zero-delay NORMAL
    # event; LOW drains last.
    assert order == ["heap-normal-1", "deque-urgent", "heap-normal-2",
                     "deque-normal", "heap-low"]


def test_same_timestamp_ordering_matches_step_by_step(sim):
    """run() and repeated step() observe the identical total order."""

    def build(s):
        log = []

        def burst():
            for i in range(5):
                event = s.event()
                event.succeed(i)
                event.callbacks.append(
                    lambda e: log.append(("zero", e.value, s.now)))
            yield s.timeout(1.0)
            log.append(("woke", None, s.now))

        s.process(burst())
        return log

    sim_run = sim
    log_run = build(sim_run)
    sim_run.run()

    sim_step = Simulator()
    log_step = build(sim_step)
    while sim_step.peek() != float("inf"):
        sim_step.step()
    assert log_run == log_step
    assert sim_run.events_processed == sim_step.events_processed


# -- run(until=event) callback hygiene ---------------------------------------

def test_run_until_event_max_events_abort_removes_finish_callback(sim):
    """An aborted run(until=event) must not leave its finish closure on
    the event: a later run that processes the event would otherwise see
    SimulationFinished raised from a stale callback."""

    def chatter():
        while True:
            yield sim.timeout(0.001)

    def target_body():
        yield sim.timeout(10.0)
        return "late"

    sim.process(chatter())
    target = sim.process(target_body())
    with pytest.raises(SimnetError, match="max_events"):
        sim.run(until=target, max_events=50)
    # The abort detached the closure...
    assert target.callbacks == []
    # ...so finishing the run generically neither raises nor returns early.
    assert sim.run(until=11.0) is None
    assert target.processed and target.value == "late"


def test_run_until_event_deadlock_removes_finish_callback(sim):
    never = sim.event()
    sim.timeout(1.0)
    with pytest.raises(SimnetError, match="ran dry"):
        sim.run(until=never)
    assert never.callbacks == []
    never.succeed("eventually")
    assert sim.run(until=never) == "eventually"
