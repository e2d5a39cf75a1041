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

    def test_try_get(self, sim):
        store = Store(sim)
        assert store.try_get() is None
        store.put(1)
        store.put(2)
        sim.run()
        assert store.try_get() == 1
        assert store.try_get() == 2
        assert store.try_get() is None

    def test_len_and_is_empty(self, sim):
        store = Store(sim)
        assert not store.items and len(store) == 0
        store.put("x")
        sim.run()
        assert store.items and len(store) == 1


class TestResource:
    def test_grant_and_release(self, sim):
        resource = Resource(sim)
        log = []

        def user(name, hold):
            yield resource.request()
            log.append((name, "in", sim.now))
            yield sim.timeout(hold)
            resource.release()
            log.append((name, "out", sim.now))

        sim.process(user("a", 1.0))
        sim.process(user("b", 1.0))
        sim.run()
        # a holds the lock from t=0; b is granted it at a's release.
        assert log == [("a", "in", 0.0), ("a", "out", 1.0),
                       ("b", "in", 1.0), ("b", "out", 2.0)]

    def test_fifo_fairness(self, sim):
        resource = Resource(sim)
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

    def test_over_release_rejected(self, sim):
        resource = Resource(sim)
        with pytest.raises(SimnetError):
            resource.release()

        def body():
            yield resource.request()
            resource.release()

        sim.process(body())
        sim.run()
        with pytest.raises(SimnetError):
            resource.release()
