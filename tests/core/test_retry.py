"""Tests for RetryPolicy: validation, backoff arithmetic, and
deterministic seeded jitter."""

import numpy as np
import pytest

from repro import Buffer, RetryPolicy, enquiry, make_sp2
from repro.core.errors import NexusError
from repro.core.retry import NO_RETRY
from repro.obs.spans import PHASE_RETRY
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


#: When the retried RSR of ``TestRetryLadder`` is dispatched, to the
#: float: attempt 0 fails at 1.29 ms, the backoff is 100 us, and attempt
#: 1 delivers.  It was this reading while attempt 0 still ran in
#: ``Startpoint._send_link``; moving the attempt must not move it.
DISPATCHED_AT = 0.0015866000000000003


class TestRetryLadder:
    def test_failed_first_attempt_is_retried_once_not_resent(self):
        """One RSR whose first attempt fails and whose second succeeds:
        the ladder picks up from the failed attempt, so MPL sees two
        sends of it, one backoff, and no failover."""
        bed = make_sp2(
            nodes_a=2, nodes_b=0, observe=True,
            retry_policy=RetryPolicy(max_attempts=2, base_delay=1e-4,
                                     max_delay=1e-3, jitter=0.0))
        nexus = bed.nexus
        a = nexus.context(bed.hosts_a[0])
        b = nexus.context(bed.hosts_a[1])
        dispatched = {}
        b.register_handler(
            "n", lambda c, e, buf: dispatched.setdefault(buf.get_int(),
                                                         nexus.now))
        sp = a.startpoint_to(b.new_endpoint())
        mpl = nexus.transports.get("mpl")
        sends = []

        def counted(local, state, descriptor, message, _send=mpl.send):
            sends.append(message.payload.reader_copy().get_int())
            return _send(local, state, descriptor, message)

        mpl.send = counted
        # MPL is down for the second RSR's first attempt only (sent at
        # 1.29 ms): the outage ends inside the 100 us backoff before the
        # retry (1.39 ms).
        FaultPlan(nexus.network).outage(
            bed.hosts_a[0], bed.hosts_a[1], transport="mpl",
            start=1.25e-3, duration=1e-4).install(bed.sim)

        def sender():
            yield from sp.rsr("n", Buffer().put_int(1))  # warms the link
            yield 1e-3
            yield from sp.rsr("n", Buffer().put_int(2))

        nexus.run_until(sender(), b.wait(lambda: 2 in dispatched))
        assert sends == [1, 2, 2]
        metrics = nexus.obs.metrics
        assert metrics.count("nexus.rsr_retries") == 1
        assert metrics.count("nexus.rsr_failovers") == 0
        retries = [span for span in nexus.obs.spans
                   if span.phase == PHASE_RETRY]
        assert [(span.lane, span.attrs["attempt"]) for span in retries] \
            == [("mpl", 1)]
        assert sp.current_methods() == ["mpl"]
        assert dispatched[2] == DISPATCHED_AT
