"""Property-based tests for the discrete-event engine (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet import Simulator, Store
from repro.simnet.resources import Resource

delays = st.lists(st.floats(min_value=0.0, max_value=100.0,
                            allow_nan=False, allow_infinity=False),
                  min_size=1, max_size=40)


@given(delays)
@settings(max_examples=60, deadline=None)
def test_timeouts_fire_in_nondecreasing_time_order(ds):
    """Events must be processed in non-decreasing virtual time, whatever
    the creation order of timeouts."""
    sim = Simulator()
    fired = []

    def watcher(t):
        def body():
            yield sim.timeout(t)
            fired.append(sim.now)
        return body

    for d in ds:
        sim.process(watcher(d)())
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(ds)
    assert sim.now == max(ds)


@given(delays)
@settings(max_examples=60, deadline=None)
def test_equal_time_events_fifo(ds):
    """Among events scheduled for the same instant, creation order wins —
    the engine must behave like a stable priority queue."""
    sim = Simulator()
    order = []

    def body(index, delay):
        yield sim.timeout(delay)
        order.append((sim.now, index))

    for index, d in enumerate(ds):
        sim.process(body(index, d))
    sim.run()
    # Expected: stable sort of (delay, creation index).
    expected = [(t, i) for t, i in
                sorted(((d, i) for i, d in enumerate(ds)))]
    assert order == expected


@given(st.lists(st.integers(min_value=0, max_value=10_000),
                min_size=1, max_size=200))
@settings(max_examples=60, deadline=None)
def test_store_preserves_fifo_and_conserves_items(items):
    """Whatever is put into an unbounded Store comes out once, in order."""
    sim = Simulator()
    store = Store(sim)
    out = []

    def producer():
        for item in items:
            store.put(item)
            yield sim.timeout(0.001)

    def consumer():
        for _ in items:
            value = yield store.get()
            out.append(value)

    sim.process(producer())
    done = sim.process(consumer())
    sim.run(until=done)
    assert out == items
    assert not store.items


@given(st.lists(st.tuples(st.integers(min_value=1, max_value=3),
                          st.floats(min_value=0.001, max_value=1.0)),
                min_size=1, max_size=30),
       st.integers(min_value=3, max_value=5))
@settings(max_examples=40, deadline=None)
def test_resource_never_oversubscribed(requests, capacity):
    """At no instant may granted units exceed capacity, and every request
    must eventually be granted (no lost wakeups)."""
    sim = Simulator()
    resource = Resource(sim, capacity=capacity)
    granted = []
    max_in_use = 0

    def user(amount, hold):
        nonlocal max_in_use
        yield resource.request(amount)
        max_in_use = max(max_in_use, capacity - resource.available)
        assert resource.available >= 0
        yield sim.timeout(hold)
        resource.release(amount)
        granted.append(amount)

    for amount, hold in requests:
        sim.process(user(amount, hold))
    sim.run()
    assert len(granted) == len(requests)
    assert resource.available == capacity
    assert max_in_use <= capacity


@given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=2,
                max_size=20))
@settings(max_examples=50, deadline=None)
def test_all_of_fires_at_max_any_of_at_min(ds):
    sim = Simulator()
    timeouts = [sim.timeout(d) for d in ds]
    times = {}

    def wait_all():
        yield sim.all_of(timeouts)
        times["all"] = sim.now

    def wait_any():
        yield sim.any_of(list(timeouts))
        times["any"] = sim.now

    sim.process(wait_all())
    sim.process(wait_any())
    sim.run()
    assert times["all"] == max(ds)
    assert times["any"] == min(ds)
