"""Tests for events, timeouts, and the all-of join."""

import pytest

from repro.simnet import Event, Simulator
from repro.simnet.errors import EventError, ScheduleError


def test_event_lifecycle(sim):
    event = Event(sim, name="e")
    assert not event.triggered and not event.processed
    event.succeed(42)
    assert event.triggered and not event.processed
    sim.run()
    assert event.processed and event._ok and event.value == 42


def test_event_double_trigger_rejected(sim):
    event = Event(sim)
    event.succeed()
    with pytest.raises(EventError):
        event.succeed()
    with pytest.raises(EventError):
        event.fail(RuntimeError("x"))
    sim.run()


def test_value_before_trigger_rejected(sim):
    event = Event(sim)
    with pytest.raises(EventError):
        _ = event.value
    event.succeed(1)
    sim.run()


def test_fail_requires_exception(sim):
    event = Event(sim)
    with pytest.raises(EventError):
        event.fail("not an exception")  # type: ignore[arg-type]
    event.succeed()
    sim.run()


def test_unhandled_failure_surfaces(sim):
    event = Event(sim)
    event.fail(ValueError("boom"))
    with pytest.raises(ValueError, match="boom"):
        sim.run()


def test_defused_failure_is_silent(sim):
    event = Event(sim)
    event.fail(ValueError("boom"))
    event.defuse()
    sim.run()  # no raise


def test_timeout_fires_at_delay(sim):
    t = sim.timeout(1.5, value="done")
    sim.run()
    assert sim.now == 1.5
    assert t.value == "done"


def test_negative_timeout_rejected(sim):
    with pytest.raises(ScheduleError):
        sim.timeout(-0.1)


def test_timeout_positional_name_is_the_name(sim):
    """``timeout(delay, value, name)`` positionally: the third argument
    used to land on ``priority`` through the C-level partial, putting a
    ``str`` in the queue entry (``TypeError`` on the first same-time
    comparison) and losing the name."""
    first = sim.timeout(1.0, None, "first")
    second = sim.timeout(1.0, None, "second")
    assert (first.name, second.name) == ("first", "second")
    fired = []
    for timeout in (first, second):
        timeout.callbacks.append(lambda event: fired.append(event.name))
    sim.run()
    assert fired == ["first", "second"]


# -- timeout_at ---------------------------------------------------------------

def _order_of(sim, events):
    fired = []
    for label, event in events:
        event.callbacks.append(lambda _event, label=label: fired.append(label))
    sim.run()
    return fired


def test_timeout_at_lands_on_the_instant_a_delay_misses(sim):
    sim.run(until=0.3)
    when = 0.9
    assert sim.now + (when - sim.now) != when  # the reason it exists
    timeout = sim.timeout_at(when, "v", "landing")
    sim.run()
    assert sim.now == when
    assert (timeout.value, timeout.name) == ("v", "landing")


def test_timeout_at_past_rejected(sim):
    sim.run(until=2.0)
    with pytest.raises(ScheduleError, match="past"):
        sim.timeout_at(1.0)
    with pytest.raises(ScheduleError):
        sim.timeout_at(float("nan"))


def test_timeout_at_now_keeps_seq_order_among_zero_delay_events(sim):
    sim.run(until=1.0)
    events = [("zero-a", sim.timeout(0.0)),
              ("at-now", sim.timeout_at(sim.now)),
              ("succeed", Event(sim).succeed()),
              ("zero-b", sim.timeout(0.0))]
    assert _order_of(sim, events) == ["zero-a", "at-now", "succeed",
                                      "zero-b"]
    assert sim.now == 1.0


def test_timeout_at_orders_by_seq_against_a_relative_timeout(sim):
    events = [("rel-first", sim.timeout(2.0)),
              ("at", sim.timeout_at(2.0)),
              ("rel-last", sim.timeout(2.0))]
    assert _order_of(sim, events) == ["rel-first", "at", "rel-last"]


def test_all_of_waits_for_all(sim):
    t1 = sim.timeout(1.0, value="a")
    t2 = sim.timeout(2.0, value="b")
    results = {}

    def waiter():
        results["value"] = yield sim.all_of([t1, t2])
        results["time"] = sim.now

    sim.process(waiter())
    sim.run()
    assert results == {"value": None, "time": 2.0}


def test_empty_all_of_triggers_immediately(sim):
    done = {}

    def waiter():
        value = yield sim.all_of([])
        done["v"] = value

    sim.process(waiter())
    sim.run()
    assert done == {"v": None}
    assert sim.now == 0.0


def test_condition_propagates_child_failure(sim):
    bad = Event(sim)
    good = sim.timeout(1.0)
    caught = {}

    def waiter():
        try:
            yield sim.all_of([good, bad])
        except RuntimeError as exc:
            caught["exc"] = exc

    sim.process(waiter())
    bad.fail(RuntimeError("child died"))
    sim.run()
    assert "child died" in str(caught["exc"])


def test_condition_rejects_cross_simulator_events(sim):
    other = Simulator()
    with pytest.raises(EventError):
        sim.all_of([Event(sim), Event(other)])
