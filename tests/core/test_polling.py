"""Tests for the poll manager: cycle accounting, skip_poll, masks,
blocking mode, busy_work, and the idle fast-forward equivalence."""

import pytest

from repro.core.buffers import Buffer
from repro.core.errors import PollingError
from repro.testbeds import make_sp2


@pytest.fixture
def bed():
    return make_sp2(nodes_a=2, nodes_b=1)


@pytest.fixture
def ctx(bed):
    return bed.nexus.context(bed.hosts_a[0])


class TestConfiguration:
    def test_default_skip_is_one(self, ctx):
        assert ctx.poll_manager.get_skip("tcp") == 1

    def test_set_skip_validation(self, ctx):
        pm = ctx.poll_manager
        pm.set_skip("tcp", 20)
        assert pm.get_skip("tcp") == 20
        with pytest.raises(PollingError):
            pm.set_skip("tcp", 0)
        with pytest.raises(PollingError):
            pm.set_skip("nonexistent", 2)

    def test_disable(self, ctx):
        pm = ctx.poll_manager
        pm.disable("tcp")
        assert "tcp" not in pm.active_methods()
        assert "mpl" in pm.active_methods()
        with pytest.raises(PollingError):
            pm.disable("nonexistent")

    def test_only_mask_restores_on_exit(self, ctx):
        pm = ctx.poll_manager
        with pm.only("local", "mpl"):
            assert "tcp" not in pm.active_methods()
            assert "mpl" in pm.active_methods()
        assert "tcp" in pm.active_methods()

    def test_only_mask_nests(self, ctx):
        pm = ctx.poll_manager
        with pm.only("local", "mpl"):
            with pm.only("local"):
                assert pm.active_methods() == ["local"]
            assert "mpl" in pm.active_methods()

    def test_only_unknown_method_rejected(self, ctx):
        with pytest.raises(PollingError):
            ctx.poll_manager.only("nonexistent")

    def test_add_method(self, bed, ctx):
        pm = ctx.poll_manager
        bed.nexus.transports.enable("mcast")
        pm.add_method("mcast")
        pm.add_method("mcast")  # idempotent
        assert pm.methods.count("mcast") == 1
        with pytest.raises(PollingError):
            pm.add_method("never-enabled")


class TestCycleAccounting:
    def test_poll_charges_sum_of_costs(self, bed, ctx):
        nexus = bed.nexus
        expected = sum(nexus.transports.get(m).costs.poll_cost
                       for m in ctx.poll_manager.active_methods())

        def body():
            yield from ctx.poll()

        done = nexus.spawn(body())
        nexus.run(until=done)
        assert nexus.now == pytest.approx(expected)

    def test_skip_decimates_cost(self, bed, ctx):
        nexus = bed.nexus
        ctx.poll_manager.set_skip("tcp", 5)
        tcp_cost = nexus.transports.get("tcp").costs.poll_cost

        def body():
            for _ in range(10):
                yield from ctx.poll()

        done = nexus.spawn(body())
        nexus.run(until=done)
        fires = ctx.poll_manager.stats.fires
        assert fires["mpl"] == 10
        assert fires["tcp"] == 2  # cycles 5 and 10
        assert ctx.poll_manager.stats.poll_time["tcp"] == pytest.approx(
            2 * tcp_cost)

    def test_foreign_poll_accumulator(self, bed, ctx):
        nexus = bed.nexus
        tcp_cost = nexus.transports.get("tcp").costs.poll_cost

        def body():
            for _ in range(4):
                yield from ctx.poll()

        done = nexus.spawn(body())
        nexus.run(until=done)
        # Only device-stealing methods (tcp) contribute.
        assert ctx.foreign_poll_total == pytest.approx(4 * tcp_cost)

    def test_masked_methods_cost_nothing(self, bed, ctx):
        nexus = bed.nexus

        def body():
            with ctx.poll_manager.only("local", "mpl"):
                for _ in range(5):
                    yield from ctx.poll()

        done = nexus.spawn(body())
        nexus.run(until=done)
        assert "tcp" not in ctx.poll_manager.stats.fires
        assert ctx.foreign_poll_total == 0.0

    def test_amortized_cycle_time(self, bed, ctx):
        nexus = bed.nexus
        pm = ctx.poll_manager
        pm.set_skip("tcp", 10)
        tcp = nexus.transports.get("tcp").costs.poll_cost
        mpl = nexus.transports.get("mpl").costs.poll_cost
        local = nexus.transports.get("local").costs.poll_cost
        loop = nexus.runtime_costs.poll_loop_cost
        assert pm.amortized_cycle_time() == pytest.approx(
            loop + local + mpl + tcp / 10)


class TestBusyWork:
    def test_bulk_matches_explicit_polls(self, bed):
        """busy_work(n) must charge the same total poll cost as n
        explicit poll() calls (same skips, same counters)."""
        nexus = bed.nexus
        ctx_bulk = nexus.context(bed.hosts_a[0])
        ctx_loop = nexus.context(bed.hosts_a[1])
        for c in (ctx_bulk, ctx_loop):
            c.poll_manager.set_skip("tcp", 7)

        times = {}

        def bulk():
            start = nexus.now
            yield from ctx_bulk.poll_manager.busy_work(100, 0.0)
            times["bulk"] = nexus.now - start

        def loop():
            start = nexus.now
            for _ in range(100):
                yield from ctx_loop.poll()
            # plus the bulk version's trailing real poll
            yield from ctx_loop.poll()
            times["loop"] = nexus.now - start

        done = nexus.sim.all_of([nexus.spawn(bulk()), nexus.spawn(loop())])
        nexus.run(until=done)
        assert times["bulk"] == pytest.approx(times["loop"], rel=1e-6)

    def test_compute_time_added(self, bed, ctx):
        nexus = bed.nexus

        def body():
            yield from ctx.poll_manager.busy_work(0, 2.5)

        done = nexus.spawn(body())
        nexus.run(until=done)
        assert nexus.now >= 2.5

    def test_negative_ops_rejected(self, ctx):
        with pytest.raises(PollingError):
            next(ctx.poll_manager.busy_work(-1))

    def test_final_poll_dispatches(self, bed):
        nexus = bed.nexus
        a = nexus.context(bed.hosts_a[0])
        b = nexus.context(bed.hosts_a[1])
        log = []
        b.register_handler("h", lambda c, e, buf: log.append(1))
        sp = a.startpoint_to(b.new_endpoint())

        def sender():
            yield from sp.rsr("h", Buffer())

        def busy():
            result = yield from b.poll_manager.busy_work(1000, 0.5)
            return result

        done = nexus.spawn(busy())
        nexus.spawn(sender())
        count = nexus.run(until=done)
        assert count == 1 and log == [1]


class TestBlockingMode:
    def test_blocking_removes_method_from_cycle(self, bed, ctx):
        pm = ctx.poll_manager
        pm.set_blocking("tcp")
        assert "tcp" not in pm.active_methods()
        pm.set_blocking("tcp", enabled=False)
        assert "tcp" in pm.active_methods()

    def test_blocking_requires_transport_support(self, bed, ctx):
        with pytest.raises(PollingError):
            ctx.poll_manager.set_blocking("mpl")  # no blocking waits

    def test_blocking_watcher_dispatches(self, bed):
        nexus = bed.nexus
        a = nexus.context(bed.hosts_a[0])
        b = nexus.context(bed.hosts_b[0])  # cross partition: tcp
        b.poll_manager.set_blocking("tcp")
        log = []
        b.register_handler("h", lambda c, e, buf: log.append(nexus.now))
        sp = a.startpoint_to(b.new_endpoint())

        def sender():
            yield from sp.rsr("h", Buffer())

        def receiver():
            # the *application* never polls; the watcher must deliver
            yield from b.wait(lambda: bool(log))

        done = nexus.spawn(receiver())
        nexus.spawn(sender())
        nexus.run(until=done)
        assert log and "tcp" not in b.poll_manager.stats.fires


class TestWaitLoop:
    def test_wait_on_event(self, bed, ctx):
        nexus = bed.nexus
        trigger = nexus.sim.timeout(0.25)

        def body():
            yield from ctx.wait(trigger)
            return nexus.now

        done = nexus.spawn(body())
        nexus.run(until=done)
        assert done.value >= 0.25

    def test_wait_charges_spin_time(self, bed, ctx):
        """Waiting is not free: poll costs accrue during the wait."""
        nexus = bed.nexus
        trigger = nexus.sim.timeout(0.01)

        def body():
            yield from ctx.wait(trigger)

        done = nexus.spawn(body())
        nexus.run(until=done)
        stats = ctx.poll_manager.stats
        assert stats.cycles > 1
        assert sum(stats.poll_time.values()) > 0.0
