"""Tests for span-based RSR lifecycle tracing."""

import types

import pytest

from repro.core.buffers import Buffer
from repro.core.forwarding import ForwardingService
from repro.obs import PHASES, Counter, Observability
from repro.testbeds import make_sp2

REQUIRED = {"issue", "marshal", "enqueue", "wire", "poll_detect",
            "dispatch", "handler"}


def run_pingpong(observe=True):
    """One mpl RSR and one tcp RSR, both fully delivered.

    ``observe=None`` leaves the runtime's default (so the scope-based
    ``repro.obs.collecting()`` switch is what decides).
    """
    bed = make_sp2(nodes_a=2, nodes_b=1)
    nexus = bed.nexus
    if observe is not None:
        nexus.obs.enabled = observe
    a = nexus.context(bed.hosts_a[0], "a")
    b = nexus.context(bed.hosts_a[1], "b")
    c = nexus.context(bed.hosts_b[0], "c")
    for ctx in (b, c):
        ctx.register_handler("h", lambda cc, e, buf: None)
    sp_near = a.startpoint_to(b.new_endpoint())
    sp_far = a.startpoint_to(c.new_endpoint())

    def sender():
        yield from sp_near.rsr("h", Buffer().put_padding(64))
        yield from sp_far.rsr("h", Buffer().put_padding(256))

    def waiter(ctx):
        yield from ctx.wait(lambda: ctx.rsrs_dispatched == 1)

    done = [nexus.spawn(waiter(b)), nexus.spawn(waiter(c))]
    nexus.spawn(sender())
    nexus.run(until=nexus.sim.all_of(done))
    return bed


class TestDisabled:
    def test_records_nothing(self):
        bed = run_pingpong(observe=False)
        obs = bed.nexus.obs
        assert obs.spans == []
        assert obs.rsrs_started == 0
        assert all(isinstance(metric, Counter)
                   for _name, _labels, metric in obs.metrics.collect())
        # Runtime counters count whether or not the runtime observes.
        assert obs.metrics.count("nexus.rsrs_sent") == 2

    def test_messages_carry_no_trace(self):
        from repro.transports.base import WireMessage
        message = WireMessage(handler="h", endpoint_id=1, src_context=1,
                              dst_context=2, payload=None, nbytes=10)
        assert message.trace is None

    def test_open_span_is_noop(self):
        bed = make_sp2(nodes_a=1, nodes_b=0)
        assert bed.nexus.obs.open_span("issue") is None


class TestLifecycle:
    def test_every_rsr_covers_the_full_phase_chain(self):
        bed = run_pingpong()
        obs = bed.nexus.obs
        assert obs.rsrs_started == 2
        assert obs.rsrs_finished == 2
        for rsr in (1, 2):
            assert REQUIRED <= set(obs.phases_for_rsr(rsr))

    def test_phases_in_lifecycle_order(self):
        bed = run_pingpong()
        phases = bed.nexus.obs.phases_for_rsr(1)
        assert phases == [p for p in PHASES if p in set(phases)]

    def test_spans_are_closed_with_nonnegative_durations(self):
        bed = run_pingpong()
        for span in bed.nexus.obs.spans:
            assert span.end is not None
            assert span.duration >= 0.0

    def test_parent_links_chain_within_one_rsr(self):
        bed = run_pingpong()
        obs = bed.nexus.obs
        for rsr in (1, 2):
            spans = obs.spans_for_rsr(rsr)
            by_id = {span.id: span for span in spans}
            roots = [span for span in spans if span.parent is None]
            assert [root.phase for root in roots] == ["issue"]
            for span in spans:
                if span.parent is not None:
                    assert by_id[span.parent].rsr == rsr

    def test_lanes_label_transport_and_dispatch(self):
        bed = run_pingpong()
        obs = bed.nexus.obs
        wire_lanes = {s.lane for s in obs.spans if s.phase == "wire"}
        assert wire_lanes == {"mpl", "tcp"}
        assert {s.lane for s in obs.spans if s.phase == "handler"} == {"nexus"}

    def test_latency_and_phase_metrics_recorded(self):
        bed = run_pingpong()
        metrics = bed.nexus.obs.metrics
        latencies = {dict(labels)["method"]: m for _n, labels, m
                     in metrics.collect("rsr_latency_us")}
        assert set(latencies) == {"mpl", "tcp"}
        assert all(m.count == 1 for m in latencies.values())
        phase_keys = {(dict(labels)["phase"], dict(labels)["lane"])
                      for _n, labels, _m in metrics.collect("rsr_phase_us")}
        assert ("wire", "tcp") in phase_keys
        assert ("handler", "nexus") in phase_keys

    def test_poll_batch_histogram_recorded(self):
        bed = run_pingpong()
        batches = bed.nexus.obs.metrics.collect("poll_batch")
        assert batches  # the waiters polled
        methods = {dict(labels)["method"] for _n, labels, _m in batches}
        assert "mpl" in methods


class TestSpanCap:
    def test_excess_spans_are_counted_not_silent(self, sim):
        obs = Observability(sim, enabled=True, max_spans=2)
        assert obs.open_span("issue") is not None
        assert obs.open_span("issue") is not None
        assert obs.open_span("issue") is None
        assert len(obs.spans) == 2
        assert obs.dropped_spans == 1

    def test_cap_binding_at_a_transition_closes_but_does_not_advance(
            self, sim):
        """The cap binds inside ``transition``, not at ``rsr_begin``:
        the previous span still closes and is recorded, the refused open
        is counted, and the trace's open span does not move."""
        obs = Observability(sim, enabled=True, max_spans=2)
        message = types.SimpleNamespace(trace=None)
        obs.attach(message, obs.rsr_begin(ctx=0, handler="h", links=1))
        trace = message.trace
        enqueue = trace.transition("enqueue", ctx=0, lane="mpl")
        assert enqueue is not None and trace.current is enqueue
        assert trace.transition("wire", ctx=0) is None
        assert enqueue.end == sim.now
        assert obs.sink.closed == [enqueue]
        assert obs.metrics.histogram(
            "rsr_phase_us", phase="enqueue", lane="mpl").count == 1
        assert obs.dropped_spans == 1
        assert trace.current is enqueue


class TestForwarding:
    def test_forwarded_rsr_chains_through_the_forwarder(self):
        bed = make_sp2(nodes_a=2, nodes_b=1)
        nexus = bed.nexus
        nexus.obs.enabled = True
        fwd = nexus.context(bed.hosts_a[0], "fwd")
        member = nexus.context(bed.hosts_a[1], "m1")
        external = nexus.context(bed.hosts_b[0], "ext")
        ForwardingService(nexus).install(fwd, [fwd, member])
        log = []
        member.register_handler("h", lambda c, e, buf: log.append(1))
        sp = external.startpoint_to(member.new_endpoint())

        def sender():
            yield from sp.rsr("h", Buffer())

        def waiter():
            yield from member.wait(lambda: bool(log))

        done = nexus.spawn(waiter())
        nexus.spawn(sender())
        nexus.run(until=done)

        obs = nexus.obs
        phases = obs.phases_for_rsr(1)
        assert "forward" in phases
        # Both lanes appear: tcp into the forwarder, mpl out of it.
        lanes = {s.lane for s in obs.spans_for_rsr(1) if s.phase == "wire"}
        assert lanes == {"tcp", "mpl"}
        forward = [s for s in obs.spans_for_rsr(1) if s.phase == "forward"]
        assert forward[0].attrs["hop"] == 1
        forwarded = obs.metrics.collect("rsr_forwarded")
        assert forwarded and forwarded[0][2].value == 1


class TestMulticast:
    METHODS = ("local", "mpl", "tcp", "mcast")

    def test_group_send_forks_one_child_chain_per_member(self):
        bed = make_sp2(nodes_a=4, nodes_b=0, transports=self.METHODS)
        nexus = bed.nexus
        nexus.obs.enabled = True
        contexts = [nexus.context(h, f"m{i}", methods=self.METHODS)
                    for i, h in enumerate(bed.hosts_a)]
        mcast = nexus.transports.get("mcast")
        for ctx in contexts:
            mcast.join("g", ctx)
            ctx.poll_manager.add_method("mcast")
        got = []
        for ctx in contexts:
            ctx.register_handler("u", lambda c, e, buf: got.append(c.name))
        sender = contexts[0]
        sp = sender.new_startpoint()
        for ctx in contexts[1:]:
            endpoint = ctx.new_endpoint()
            table = ctx.export_table().add(
                mcast.descriptor_for_group(ctx, "g"), position=0)
            sp.bind_address(ctx.id, endpoint.id, table)
        sp.set_method("mcast")

        def send():
            yield from sp.rsr("u", Buffer().put_int(7))

        def waiter(ctx):
            yield from ctx.wait(lambda: ctx.name in got)

        waits = [nexus.spawn(waiter(ctx)) for ctx in contexts[1:]]
        nexus.spawn(send())
        nexus.run(until=nexus.sim.all_of(waits))

        obs = nexus.obs
        spans = obs.spans_for_rsr(1)
        group_wire = [s for s in spans
                      if s.phase == "wire" and s.attrs
                      and s.attrs.get("group") == "g"]
        assert len(group_wire) == 1
        children = [s for s in spans
                    if s.phase == "wire" and s.parent == group_wire[0].id]
        assert len(children) == 3  # one fork per member delivery
        assert len([s for s in spans if s.phase == "handler"]) == 3
        # Every RSR that was delivered has the full acceptance phase set.
        assert {"marshal", "wire", "poll_detect",
                "dispatch"} <= set(obs.phases_for_rsr(1))


class TestObservabilityQueries:
    def test_phases_for_unknown_rsr_is_empty(self, sim):
        obs = Observability(sim, enabled=True)
        assert obs.phases_for_rsr(99) == []

    def test_rsr_ids_are_dense_from_one(self):
        bed = run_pingpong()
        rsrs = {span.rsr for span in bed.nexus.obs.spans}
        assert rsrs == {1, 2}
