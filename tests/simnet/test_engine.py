"""Tests for the simulator core (scheduling, run modes, determinism)."""

import pytest

from repro.simnet import Event, Simulator
from repro.simnet.errors import ScheduleError, SimnetError


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_run_until_time(sim):
    log = []

    def ticker():
        while True:
            yield sim.timeout(1.0)
            log.append(sim.now)

    sim.process(ticker())
    sim.run(until=3.5)
    assert log == [1.0, 2.0, 3.0]
    assert sim.now == 3.5  # clock lands exactly on the stop time


def test_run_until_event_returns_value(sim):
    def body():
        yield sim.timeout(2.0)
        return "answer"

    proc = sim.process(body())
    assert sim.run(until=proc) == "answer"
    assert sim.now == 2.0


def test_run_until_failed_event_raises(sim):
    def body():
        yield sim.timeout(1.0)
        raise RuntimeError("died")

    proc = sim.process(body())
    with pytest.raises(RuntimeError, match="died"):
        sim.run(until=proc)


def test_run_until_already_processed_event(sim):
    def body():
        yield sim.timeout(1.0)
        return 5

    proc = sim.process(body())
    sim.run()
    assert sim.run(until=proc) == 5  # returns immediately


def test_run_until_event_queue_dry_is_deadlock(sim):
    stuck = Event(sim)
    with pytest.raises(SimnetError, match="deadlock"):
        sim.run(until=stuck)


def test_run_until_past_time_rejected(sim):
    sim.run(until=5.0)
    with pytest.raises(ScheduleError):
        sim.run(until=4.0)


def test_max_events_guard(sim):
    def spinner():
        while True:
            yield sim.timeout(0.001)

    sim.process(spinner())
    with pytest.raises(SimnetError, match="max_events"):
        sim.run(max_events=100)


def test_step_on_empty_queue_rejected(sim):
    with pytest.raises(SimnetError):
        sim.step()


def test_peek(sim):
    assert sim.peek() == float("inf")
    sim.timeout(3.0)
    assert sim.peek() == 3.0


def test_fifo_order_at_same_instant(sim):
    order = []

    def mk(tag):
        def body():
            yield sim.timeout(1.0)
            order.append(tag)
        return body

    for tag in ("a", "b", "c", "d"):
        sim.process(mk(tag)())
    sim.run()
    assert order == ["a", "b", "c", "d"]


def test_determinism_across_runs():
    def build_and_run():
        sim = Simulator()
        trace = []

        def worker(name, delay, repeats):
            for _ in range(repeats):
                yield sim.timeout(delay)
                trace.append((name, sim.now))

        sim.process(worker("x", 0.3, 5))
        sim.process(worker("y", 0.7, 3))
        sim.process(worker("z", 0.2, 7))
        sim.run()
        return trace

    assert build_and_run() == build_and_run()


def test_events_processed_counter(sim):
    before = sim.events_processed

    def body():
        yield sim.timeout(1.0)
        yield sim.timeout(1.0)

    sim.process(body())
    sim.run()
    assert sim.events_processed > before
