"""Tests for the adaptive skip_poll controller."""

import pytest

from repro.core.adaptive import AdaptiveConfig, AdaptiveSkipPoll
from repro.core.buffers import Buffer
from repro.core.errors import PollingError
from repro.testbeds import make_sp2


@pytest.fixture
def bed():
    return make_sp2(nodes_a=2, nodes_b=1)


@pytest.fixture
def ctx(bed):
    return bed.nexus.context(bed.hosts_a[0])


class TestConfigValidation:
    def test_defaults_ok(self):
        AdaptiveConfig()

    def test_bad_bounds(self):
        with pytest.raises(PollingError):
            AdaptiveConfig(min_skip=0)
        with pytest.raises(PollingError):
            AdaptiveConfig(min_skip=10, max_skip=5)

    def test_bad_factors(self):
        with pytest.raises(PollingError):
            AdaptiveConfig(increase_factor=1.0)
        with pytest.raises(PollingError):
            AdaptiveConfig(decrease_factor=0.5)


class TestController:
    def test_unknown_method_rejected(self, ctx):
        with pytest.raises(PollingError):
            AdaptiveSkipPoll(ctx, "nonexistent")

    def test_misses_raise_skip(self, ctx):
        controller = AdaptiveSkipPoll(
            ctx, "tcp", AdaptiveConfig(raise_after_misses=3))
        for _ in range(3):
            controller.observe(found=0)
        assert controller.skip == 2
        for _ in range(3):
            controller.observe(found=0)
        assert controller.skip == 4

    def test_hit_resets_miss_count(self, ctx):
        controller = AdaptiveSkipPoll(
            ctx, "tcp", AdaptiveConfig(raise_after_misses=3))
        controller.observe(found=0)
        controller.observe(found=0)
        controller.observe(found=1)       # resets
        controller.observe(found=0)
        controller.observe(found=0)
        assert controller.skip == 1       # never reached 3 in a row

    def test_stale_message_cuts_skip(self, ctx):
        config = AdaptiveConfig(raise_after_misses=1, latency_budget=1e-3)
        controller = AdaptiveSkipPoll(ctx, "tcp", config)
        for _ in range(6):
            controller.observe(found=0)
        raised = controller.skip
        assert raised > 1
        controller.observe(found=1, oldest_wait=5e-3)  # over budget
        assert controller.skip < raised

    def test_bounds_respected(self, ctx):
        config = AdaptiveConfig(raise_after_misses=1, max_skip=8)
        controller = AdaptiveSkipPoll(ctx, "tcp", config)
        for _ in range(50):
            controller.observe(found=0)
        assert controller.skip == 8
        for _ in range(10):
            controller.observe(found=1, oldest_wait=1.0)
        assert controller.skip == config.min_skip

    def test_adjustments_are_logged(self, ctx):
        controller = AdaptiveSkipPoll(
            ctx, "tcp", AdaptiveConfig(raise_after_misses=1))
        controller.observe(found=0)
        assert controller.adjustments
        time, value = controller.adjustments[0]
        assert value == 2


class TestAttached:
    def test_attached_controller_backs_off_idle_method(self, bed):
        """With no TCP traffic at all, the attached controller should
        raise TCP's skip while an MPL ping-pong runs."""
        nexus = bed.nexus
        a = nexus.context(bed.hosts_a[0])
        b = nexus.context(bed.hosts_a[1])
        controller = AdaptiveSkipPoll(
            b, "tcp", AdaptiveConfig(raise_after_misses=2, max_skip=64))
        controller.attach()

        log = []
        b.register_handler("h", lambda c, e, buf: log.append(1))
        sp = a.startpoint_to(b.new_endpoint())

        def sender():
            for _ in range(40):
                yield from sp.rsr("h", Buffer())
                yield from a.charge(1e-3)

        def receiver():
            yield from b.wait(lambda: len(log) >= 40)

        done = nexus.spawn(receiver())
        nexus.spawn(sender())
        nexus.run(until=done)
        assert controller.skip > 1
        assert b.poll_manager.get_skip("tcp") == controller.skip


def idle_polls(attach, polls=200):
    """``polls`` explicit runs of the polling function on a context that
    receives nothing, with a default-configured TCP controller wired in
    by ``attach(controller)``.  Returns what the controller did and when
    the last poll finished."""
    bed = make_sp2(nodes_a=2, nodes_b=1)
    ctx = bed.nexus.context(bed.hosts_a[0])
    controller = AdaptiveSkipPoll(ctx, "tcp")
    attach(controller)

    def body():
        for _ in range(polls):
            yield from ctx.poll()

    bed.nexus.run(until=bed.nexus.spawn(body()))
    return controller.skip, controller.adjustments, bed.sim.now


class TestObserverSlot:
    def test_attach_twice_observes_once(self):
        """Regression: ``attach()`` used to wrap ``manager.poll`` once per
        call, so a twice-attached controller saw every fire twice and
        backed off twice as fast (skip 32 after 200 idle polls instead of
        16, first adjustment at 0.5 ms instead of 1 ms)."""
        def twice(controller):
            controller.attach()
            controller.attach()

        once = idle_polls(AdaptiveSkipPoll.attach)
        assert idle_polls(twice) == once
        skip, adjustments, _now = once
        assert skip == 16
        assert adjustments[0] == (pytest.approx(1.0016e-3), 2)

    def test_second_controller_for_a_method_is_refused(self, ctx):
        AdaptiveSkipPoll(ctx, "tcp").attach()
        with pytest.raises(PollingError, match="already has an observer"):
            AdaptiveSkipPoll(ctx, "tcp").attach()
        AdaptiveSkipPoll(ctx, "mpl").attach()  # another method is free

    def test_detach_restores_the_unobserved_manager(self):
        def attach_then_detach(controller):
            controller.attach()
            controller.detach()
            controller.detach()  # harmless when not attached

        skip, adjustments, now = idle_polls(attach_then_detach)
        assert (skip, adjustments) == (1, [])
        assert now == idle_polls(lambda controller: None)[2]
        # ...and later than with the controller backing TCP off.
        assert now > idle_polls(AdaptiveSkipPoll.attach)[2]
