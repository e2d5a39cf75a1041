"""Tests for RetryPolicy: validation, backoff arithmetic, and
deterministic seeded jitter."""

import numpy as np
import pytest

from repro import Buffer, RetryPolicy, enquiry, make_sp2
from repro.core.errors import NexusError
from repro.core.retry import NO_RETRY
from repro.simnet import FaultPlan


class TestPolicyValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(max_attempts=0),
        dict(base_delay=-0.1),
        dict(base_delay=0.5, max_delay=0.1),
        dict(backoff=0.5),
        dict(jitter=1.5),
        dict(jitter=-0.1),
    ])
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(NexusError):
            RetryPolicy(**kwargs)

    def test_no_retry_is_single_attempt(self):
        assert NO_RETRY.max_attempts == 1


class TestBackoff:
    def test_exponential_growth_capped(self):
        policy = RetryPolicy(base_delay=0.001, max_delay=0.01,
                             backoff=2.0, jitter=0.0)
        assert policy.delay(0) == pytest.approx(0.001)
        assert policy.delay(1) == pytest.approx(0.002)
        assert policy.delay(3) == pytest.approx(0.008)
        assert policy.delay(10) == pytest.approx(0.01), "capped at max_delay"

    def test_jitter_is_bounded_and_seeded(self):
        policy = RetryPolicy(base_delay=0.001, max_delay=0.001, jitter=0.5)
        delays = [policy.delay(0, np.random.default_rng(42))
                  for _ in range(8)]
        assert delays == [delays[0]] * 8, "same seed, same jitter"
        assert 0.001 <= delays[0] <= 0.0015
        rng = np.random.default_rng(42)
        assert len({policy.delay(0, rng) for _ in range(8)}) > 1

    def test_no_rng_means_no_jitter(self):
        policy = RetryPolicy(base_delay=0.001, max_delay=0.001, jitter=0.5)
        assert policy.delay(0) == pytest.approx(0.001)


def cross_partition_send(bed, payload):
    nexus = bed.nexus
    a = nexus.context(bed.hosts_a[0])
    b = nexus.context(bed.hosts_b[0])
    log = []
    b.register_handler("blob",
                       lambda c, e, buf: log.append(buf.get_padding()))
    sp = a.startpoint_to(b.new_endpoint())

    def sender():
        yield from sp.rsr("blob", Buffer().put_padding(payload))

    nexus.run_until(sender(), b.wait(lambda: bool(log)))
    return log


class TestDeterminism:
    def test_identical_seeds_identical_retry_arcs(self):
        def run():
            bed = make_sp2(
                nodes_a=1, nodes_b=1, seed=3,
                retry_policy=RetryPolicy(max_attempts=3, base_delay=1e-4,
                                         max_delay=1e-2))
            # Each drop in the window resets the TCP send, which the send
            # path retries after a seeded-jitter backoff.
            FaultPlan(bed.nexus.network).flaky(
                bed.partition_a, bed.partition_b, transport="tcp",
                start=0.0, duration=1.0, drop_probability=0.5,
                seed=3).install(bed.sim)
            for _ in range(8):
                cross_partition_send(bed, 1024)
            health = enquiry.health_report(bed.nexus)
            # Context ids are allocated globally, so strip them before
            # comparing the two runs' transition logs.
            return (bed.sim.now, health.retries,
                    [(t, m, tr) for t, _c, _r, m, tr in health.events])

        first = run()
        assert first[1] > 0, "the flaky window forced no retry"
        assert run() == first
