"""Tests for the inlined run() loop's queue invariants.

These pin down what the loop relies on: same-timestamp events process
in the (t, priority, seq) total order whoever scheduled them, run() and
repeated step() agree on that order, and the ``run(until=event)``
finish callback cannot leak into a later run.
"""

import pytest

from repro.simnet import Simulator
from repro.simnet.errors import SimnetError
from repro.simnet.events import LOW, URGENT, Event


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
        a = Event(sim)
        a.succeed(priority=URGENT)
        a.callbacks.append(note("deque-urgent"))
        b = Event(sim)
        b.succeed()
        b.callbacks.append(note("deque-normal"))
        c = Event(sim)
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
                event = Event(s)
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
    never = Event(sim)
    sim.timeout(1.0)
    with pytest.raises(SimnetError, match="ran dry"):
        sim.run(until=never)
    assert never.callbacks == []
    never.succeed("eventually")
    assert sim.run(until=never) == "eventually"
