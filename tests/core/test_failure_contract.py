"""The send path's failure contract holds under generated fault plans.

A :class:`~repro.simnet.FaultPlan` of hard outages and flaky windows
(method, start, duration, drop probability, seed) runs over a small
MPL+TCP traffic mix on ``make_sp2``: one sender streams numbered RSRs
to a partition neighbour (MPL first, TCP as failover) and to a node of
the other partition (TCP only), under a :class:`RetryPolicy` and a
:class:`HealthConfig` short enough that windows down methods, cool-offs
elapse inside them and probes fail.  Whatever the plan:

* no RSR is dispatched twice;
* every RSR is dispatched, fails at the sender with a typed
  :class:`DeliveryError` or :class:`SelectionError`, or is counted in
  ``rsr_dropped`` -- none vanishes and none is both;
* each ``(remote, method)`` stream of ``HealthTracker.events`` starts
  with ``down`` and moves only ``down`` -> ``probe``, ``probe`` ->
  ``up`` or ``probe_failed``, ``probe_failed`` -> ``probe``, ``up`` ->
  ``down``;
* per RSR and link, no method is attempted more than
  ``RetryPolicy.max_attempts`` times, counted at the transport's
  ``send`` (a failed attempt is retried, never sent again as a fresh
  attempt 0).

MPL and TCP are both reliable, so a loss surfaces at the sender as a
``DeliveryError`` and ``rsr_dropped`` reads 0 in these runs; the term
stays in the count so that a dropped RSR is still accounted for.

Tier-1 runs a small derandomised budget; the deep one is opt-in:
``python -m pytest tests/core/test_failure_contract.py
--hypothesis-profile=deep``.
"""

import collections

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Buffer, FaultPlan, HealthConfig, RetryPolicy, make_sp2
from repro.core.errors import SelectionError
from repro.transports.errors import DeliveryError

DEEP = settings.get_profile("deep")
#: The deep profile when it was asked for, the tier-1 budget otherwise.
PROFILE = (DEEP if settings.default is DEEP
           else settings(max_examples=60, deadline=None, derandomize=True))

#: RSRs per startpoint, and the sim-time between two of them.
RSRS = 12
GAP = 2e-3
#: Sim-time after the last send for in-flight messages to land.
SETTLE = 0.05

#: The legal health transitions; ``None`` is a stream's start.
LEGAL = {None: {"down"}, "down": {"probe"},
         "probe": {"up", "probe_failed"}, "probe_failed": {"probe"},
         "up": {"down"}}

windows = st.tuples(
    st.sampled_from(("outage", "flaky")),
    st.sampled_from(("a1", "b0")),           # the sender's peer
    st.sampled_from(("mpl", "tcp", None)),   # None: every method
    st.integers(0, 20),                      # start, ms
    st.integers(1, 30),                      # duration, ms
    st.sampled_from((0.3, 0.6, 1.0)),        # drop probability
    st.integers(0, 3),                       # seed
)


POLICY = RetryPolicy(max_attempts=2, base_delay=2e-4, max_delay=1e-3)


def count_attempts(nexus, methods=("mpl", "tcp")):
    """Count every ``send`` of ``methods`` by ``(rsr, dst, method)``,
    the RSR read from its payload's first int."""
    attempts: collections.Counter = collections.Counter()
    for method in methods:
        transport = nexus.transports.get(method)

        def counted(local, state, descriptor, message,
                    _send=transport.send, _method=method):
            rsr = message.payload.reader_copy().get_int()
            attempts[rsr, message.dst_context, _method] += 1
            return _send(local, state, descriptor, message)

        transport.send = counted
    return attempts


def run_plan(plan_windows):
    bed = make_sp2(
        nodes_a=2, nodes_b=1, observe=True, retry_policy=POLICY,
        health=HealthConfig(failure_threshold=2, cooloff=5e-3))
    nexus = bed.nexus
    sim = nexus.sim
    attempts = count_attempts(nexus)
    hosts = {"a0": bed.hosts_a[0], "a1": bed.hosts_a[1],
             "b0": bed.hosts_b[0]}
    plan = FaultPlan(nexus.network)
    for kind, peer, method, start, duration, drop, seed in plan_windows:
        if kind == "outage":
            plan.outage(hosts["a0"], hosts[peer], transport=method,
                        start=start * 1e-3, duration=duration * 1e-3)
        else:
            plan.flaky(hosts["a0"], hosts[peer], transport=method,
                       start=start * 1e-3, duration=duration * 1e-3,
                       drop_probability=drop, seed=seed)
    plan.install(sim)

    sender = nexus.context(hosts["a0"], "sender")
    receivers = [nexus.context(hosts["a1"], "near"),
                 nexus.context(hosts["b0"], "far")]
    dispatched: list[int] = []
    failed: list[int] = []
    for receiver in receivers:
        receiver.register_handler(
            "n", lambda ctx, ep, buf: dispatched.append(buf.get_int()))

    def stream(startpoint, first):
        for rsr in range(first, first + RSRS):
            try:
                yield from startpoint.rsr("n", Buffer().put_int(rsr))
            except (DeliveryError, SelectionError):
                failed.append(rsr)
            yield sim.timeout(GAP)

    def traffic():
        yield sim.all_of([
            nexus.spawn(stream(sender.startpoint_to(receiver.new_endpoint()),
                               index * RSRS))
            for index, receiver in enumerate(receivers)])
        yield sim.timeout(SETTLE)

    done = nexus.spawn(traffic())
    nexus.run_until(done, *(receiver.wait(done) for receiver in receivers))
    dropped = sum(counter.value for _name, _labels, counter
                  in nexus.obs.metrics.collect("rsr_dropped"))
    return dispatched, failed, dropped, sender.health.events, attempts


@given(plan_windows=st.lists(windows, max_size=4))
@example(plan_windows=[("outage", "b0", "tcp", 0, 30, 1.0, 0),
                       ("flaky", "a1", "mpl", 5, 20, 0.6, 1)])
@PROFILE
def test_every_rsr_is_dispatched_once_or_fails_typed(plan_windows):
    dispatched, failed, dropped, events, attempts = run_plan(plan_windows)

    assert len(dispatched) == len(set(dispatched)), "an RSR ran twice"
    assert not set(dispatched) & set(failed), "an RSR ran and failed"
    assert len(dispatched) + len(failed) + dropped == 2 * RSRS

    streams: dict[tuple[int, str], list[str]] = {}
    for _when, remote, method, transition in events:
        streams.setdefault((remote, method), []).append(transition)
    for key, transitions in streams.items():
        state = None
        for transition in transitions:
            assert transition in LEGAL[state], (
                f"{key}: {state} -> {transition} in {transitions}")
            state = transition

    over = {key: count for key, count in attempts.items()
            if count > POLICY.max_attempts}
    assert not over, f"(rsr, dst, method) attempted too often: {over}"
