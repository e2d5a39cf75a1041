"""Tests for generator-coroutine processes."""

import pytest

from repro.simnet.errors import ProcessError


def test_process_return_value(sim):
    def body():
        yield sim.timeout(1.0)
        return "result"

    proc = sim.process(body())
    sim.run()
    assert not proc.is_alive
    assert proc.ok and proc.value == "result"


def test_process_is_joinable(sim):
    def child():
        yield sim.timeout(2.0)
        return 7

    def parent():
        value = yield sim.process(child())
        return value * 3

    parent_proc = sim.process(parent())
    sim.run()
    assert parent_proc.value == 21
    assert sim.now == 2.0


def test_yield_from_composition(sim):
    def step(duration):
        yield sim.timeout(duration)
        return duration * 10

    def body():
        a = yield from step(1.0)
        b = yield from step(0.5)
        return a + b

    proc = sim.process(body())
    sim.run()
    assert proc.value == 15.0
    assert sim.now == 1.5


def test_non_generator_rejected(sim):
    with pytest.raises(ProcessError):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_yielding_non_event_raises_inside_process(sim):
    caught = {}

    def body():
        try:
            yield "not an event"  # type: ignore[misc]
        except ProcessError as exc:
            caught["exc"] = str(exc)

    sim.process(body())
    sim.run()
    assert "non-Event" in caught["exc"]


def test_exception_propagates_to_joiner(sim):
    def failing():
        yield sim.timeout(1.0)
        raise ValueError("inner")

    caught = {}

    def parent():
        try:
            yield sim.process(failing())
        except ValueError as exc:
            caught["exc"] = str(exc)

    sim.process(parent())
    sim.run()
    assert caught["exc"] == "inner"


def test_unhandled_process_failure_surfaces(sim):
    def failing():
        yield sim.timeout(1.0)
        raise ValueError("unwatched")

    sim.process(failing())
    with pytest.raises(ValueError, match="unwatched"):
        sim.run()


def test_immediate_return_process(sim):
    def nothing():
        return "early"
        yield  # pragma: no cover - makes this a generator

    proc = sim.process(nothing())
    sim.run()
    assert proc.value == "early"


def test_many_concurrent_processes(sim):
    finished = []

    def worker(index):
        yield sim.timeout(index * 0.001)
        finished.append(index)

    for index in range(100):
        sim.process(worker(index))
    sim.run()
    assert finished == list(range(100))
