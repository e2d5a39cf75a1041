"""Tests for Store and Resource primitives."""

import pytest

from repro.simnet import Store
from repro.simnet.errors import SimnetError
from repro.simnet.resources import Resource


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        got = {}

        def body():
            store.put("item")
            value = yield store.get()
            got["v"] = value

        sim.process(body())
        sim.run()
        assert got["v"] == "item"

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        got = {}

        def consumer():
            value = yield store.get()
            got["v"] = (value, sim.now)

        def producer():
            yield sim.timeout(2.0)
            store.put(99)

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert got["v"] == (99, 2.0)

    def test_fifo_order(self, sim):
        store = Store(sim)
        out = []

        def body():
            for index in range(5):
                store.put(index)
            for _ in range(5):
                value = yield store.get()
                out.append(value)

        sim.process(body())
        sim.run()
        assert out == [0, 1, 2, 3, 4]

    def test_filtered_get_takes_first_match(self, sim):
        store = Store(sim)
        got = {}

        def body():
            for item in ("a1", "b1", "a2", "b2"):
                store.put(item)
            value = yield store.get(filter=lambda it: it.startswith("b"))
            got["v"] = value
            got["rest"] = tuple(store.items)

        sim.process(body())
        sim.run()
        assert got["v"] == "b1"
        assert got["rest"] == ("a1", "a2", "b2")

    def test_filtered_get_does_not_block_other_getters(self, sim):
        store = Store(sim)
        got = []

        def picky():
            value = yield store.get(filter=lambda it: it == "never")
            got.append(("picky", value))

        def easy():
            value = yield store.get()
            got.append(("easy", value))

        sim.process(picky())
        sim.process(easy())
        store.put("x")
        sim.run()
        assert got == [("easy", "x")]

    def test_try_get(self, sim):
        store = Store(sim)
        assert store.try_get() is None
        store.put(1)
        store.put(2)
        sim.run()
        assert store.try_get() == 1
        assert store.try_get(filter=lambda it: it == 2) == 2
        assert store.try_get() is None

    def test_capacity_blocks_put(self, sim):
        store = Store(sim, capacity=1)
        log = []

        def producer():
            yield store.put("a")
            log.append(("a", sim.now))
            yield store.put("b")
            log.append(("b", sim.now))

        def consumer():
            yield sim.timeout(3.0)
            yield store.get()

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert log[0] == ("a", 0.0)
        assert log[1] == ("b", 3.0)

    def test_bad_capacity_rejected(self, sim):
        with pytest.raises(SimnetError):
            Store(sim, capacity=0)

    def test_len_and_is_empty(self, sim):
        store = Store(sim)
        assert not store.items and len(store) == 0
        store.put("x")
        sim.run()
        assert store.items and len(store) == 1


class TestResource:
    def test_grant_and_release(self, sim):
        resource = Resource(sim, capacity=2)
        log = []

        def user(name, hold):
            yield resource.request()
            log.append((name, "in", sim.now))
            yield sim.timeout(hold)
            resource.release()
            log.append((name, "out", sim.now))

        sim.process(user("a", 1.0))
        sim.process(user("b", 1.0))
        sim.process(user("c", 1.0))
        sim.run()
        # a and b enter immediately; c waits for a release at t=1.
        assert (("a", "in", 0.0) in log and ("b", "in", 0.0) in log)
        assert ("c", "in", 1.0) in log

    def test_fifo_fairness(self, sim):
        resource = Resource(sim, capacity=1)
        order = []

        def user(name):
            yield resource.request()
            order.append(name)
            yield sim.timeout(1.0)
            resource.release()

        for name in ("first", "second", "third"):
            sim.process(user(name))
        sim.run()
        assert order == ["first", "second", "third"]

    def test_counters(self, sim):
        resource = Resource(sim, capacity=3)

        def body():
            yield resource.request(2)

        sim.process(body())
        sim.run()
        assert resource.available == 1
        resource.release(2)
        assert resource.available == 3

    def test_over_request_rejected(self, sim):
        resource = Resource(sim, capacity=2)
        with pytest.raises(SimnetError):
            resource.request(3)
        with pytest.raises(SimnetError):
            resource.request(0)

    def test_over_release_rejected(self, sim):
        resource = Resource(sim, capacity=1)
        with pytest.raises(SimnetError):
            resource.release()

    def test_bad_capacity_rejected(self, sim):
        with pytest.raises(SimnetError):
            Resource(sim, capacity=0)

    def test_head_of_line_blocking_is_fifo(self, sim):
        # A big request at the head must not be starved by small ones.
        resource = Resource(sim, capacity=2)
        order = []

        def holder():
            yield resource.request(2)
            yield sim.timeout(1.0)
            resource.release(2)

        def big():
            yield resource.request(2)
            order.append("big")
            resource.release(2)

        def small():
            yield resource.request(1)
            order.append("small")
            resource.release(1)

        sim.process(holder())
        sim.process(big())    # queued first
        sim.process(small())  # would fit earlier, but FIFO says no
        sim.run()
        assert order == ["big", "small"]
