"""Differential oracle for the unified poll loop's host-side rewrite.

``reference_polling.ReferencePollManager`` is the poll manager as it was
before per-method lane records and the one-frame wait loop.  The rewrite
claims *identical simulated behaviour*: same events in the same order,
same float arithmetic, fewer host operations.  So both managers run the
same generated :class:`Program` — swapped into every context of a small
SP2 testbed — and must agree **bit for bit** on every handler's clock
reading, the engine's event count, each context's ``foreign_poll_total``,
every ``PollStats`` field, the skip counters and whatever an attached
``AdaptiveSkipPoll`` did.

A program is one receiver working through a list of phases (predicate
waits, ``Event`` waits, ``busy_work``, explicit polls, ``set_skip``,
RSRs of its own — any of them optionally under an ``only()`` mask) while
an MPL neighbour and a TCP peer send it messages of 0 B–64 KiB on their
own clocks; per-method ``skip_poll``, ``set_blocking("tcp")``, an
attached controller and threaded (polling) handlers are program options.

Tier-1 runs the small profile.  The deep one is opt-in:
``python -m pytest tests/core/test_poll_reference.py
--hypothesis-profile=deep`` (registered in ``tests/conftest.py``).

``Program``, ``programs`` and ``play`` know nothing about either manager
beyond ``install``: ROADMAP item 1's stepwise twin is meant to reuse
them, and ``reference_polling.py`` retires when it lands.
"""

import contextlib
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptive import AdaptiveConfig, AdaptiveSkipPoll
from repro.core.buffers import Buffer
from repro.simnet.errors import SimnetError
from repro.simnet.events import Event
from repro.transports.costmodels import DEFAULT_COSTS
from repro.testbeds import make_sp2

from .reference_polling import (
    ReferencePollManager,
    install as install_reference,
    reference_attach,
)

NS = 1e-9
METHODS = ("local", "mpl", "tcp")

DEEP = settings.get_profile("deep")
#: The deep profile when it was asked for, the tier-1 budget otherwise.
PROFILE = (DEEP if settings.default is DEEP
           else settings(max_examples=100, deadline=None))


@dataclasses.dataclass(frozen=True)
class Phase:
    """One step of the receiver's script.

    ``wait`` — until ``a`` more messages have been handled (predicate);
    ``sleep`` — ``wait`` on a timeout ``a`` seconds out (``Event``);
    ``busy`` — ``busy_work(a, b)``;
    ``poll`` — ``a`` explicit runs of the polling function;
    ``skip`` — ``set_skip(a, b)``;  ``reply`` — one RSR to the neighbour.
    ``mask`` wraps the step in ``only(*mask)``.
    """

    kind: str
    a: object = None
    b: object = None
    mask: tuple | None = None


@dataclasses.dataclass(frozen=True)
class Program:
    #: Initial ``skip_poll`` per method at the receiver.
    skips: tuple = ()
    blocking_tcp: bool = False
    #: ``(method, raise_after_misses, latency_budget)`` or ``None``.
    adaptive: tuple | None = None
    #: Handlers run as processes that charge, then poll once more.
    threaded: bool = False
    #: ``(gap before the RSR, payload bytes)`` per message.
    mpl_sends: tuple = ()
    tcp_sends: tuple = ()
    phases: tuple = ()


def skip_counters(manager):
    if isinstance(manager, ReferencePollManager):
        return {method: manager._counters[method]
                for method in manager.methods}
    return {method: (manager._lanes[method].count
                     if method in manager._lanes else 0)
            for method in manager.methods}


def play(program, install=None, attach=AdaptiveSkipPoll.attach):
    """Run ``program``; everything two poll managers must agree on.

    ``install(context)`` swaps the manager under test into a fresh
    context (``None`` keeps the production one); ``attach(controller)``
    wires an ``AdaptiveSkipPoll`` into it.
    """
    bed = make_sp2(nodes_a=2, nodes_b=1)
    nexus, sim = bed.nexus, bed.sim
    me = nexus.context(bed.hosts_a[0], "me", methods=METHODS)
    near = nexus.context(bed.hosts_a[1], "near", methods=METHODS)
    far = nexus.context(bed.hosts_b[0], "far", methods=METHODS)
    contexts = (me, near, far)
    if install is not None:
        for context in contexts:
            install(context)

    manager = me.poll_manager
    for method, k in program.skips:
        manager.set_skip(method, k)
    if program.blocking_tcp:
        manager.set_blocking("tcp")
    controller = None
    if program.adaptive is not None:
        method, misses, budget = program.adaptive
        controller = AdaptiveSkipPoll(me, method, AdaptiveConfig(
            raise_after_misses=misses, latency_budget=budget, max_skip=256))
        attach(controller)

    log = []
    handled = {context.name: 0 for context in contexts}

    def handler(context, _endpoint, _buffer):
        log.append((context.name, sim.now))
        handled[context.name] += 1
        if not program.threaded:
            return None

        def body():
            yield from context.charge(20e-6)
            found = yield from context.poll()
            log.append((context.name, sim.now, found))

        return body()

    for context in contexts:
        context.register_handler("h", handler)
    from_near = near.startpoint_to(me.new_endpoint())
    from_far = far.startpoint_to(me.new_endpoint())
    to_near = me.startpoint_to(near.new_endpoint())

    def sender(startpoint, sends):
        for gap, nbytes in sends:
            yield sim.timeout(gap)
            yield from startpoint.rsr("h", Buffer().put_padding(nbytes))

    total = len(program.mpl_sends) + len(program.tcp_sends)

    def receiver():
        expected = 0
        for phase in program.phases:
            mask = (manager.only(*phase.mask) if phase.mask is not None
                    else contextlib.nullcontext())
            with mask:
                if phase.kind == "wait":
                    expected = min(total, expected + phase.a)
                    yield from me.wait(
                        lambda: handled["me"] >= expected)  # noqa: B023
                elif phase.kind == "sleep":
                    yield from me.wait(sim.timeout(phase.a))
                elif phase.kind == "busy":
                    found = yield from manager.busy_work(phase.a, phase.b)
                    log.append(("busy", sim.now, found))
                elif phase.kind == "poll":
                    for _ in range(phase.a):
                        found = yield from me.poll()
                        log.append(("poll", sim.now, found))
                elif phase.kind == "skip":
                    manager.set_skip(phase.a, phase.b)
                elif phase.kind == "reply":
                    yield from to_near.rsr("h", Buffer())
                else:  # pragma: no cover
                    raise AssertionError(phase.kind)
            log.append((phase.kind, sim.now))
        # Unmasked, so every message sent is eventually handled.
        yield from me.wait(lambda: handled["me"] >= total)

    processes = [nexus.spawn(receiver()),
                 nexus.spawn(sender(from_near, program.mpl_sends)),
                 nexus.spawn(sender(from_far, program.tcp_sends))]
    stuck = False
    try:
        nexus.run(until=sim.all_of(processes))
    except SimnetError:
        # The queue ran dry with the receiver still waiting (how the
        # ``lost-wake-up`` named case failed before its cure).  Where and
        # when it got stuck is part of what the two managers must agree on.
        stuck = True

    def snapshot(context):
        polls = context.poll_manager
        stats = polls.stats
        return {
            "foreign_poll_total": context.foreign_poll_total,
            "cycles": stats.cycles,
            "fires": dict(stats.fires),
            "poll_time": dict(stats.poll_time),
            "messages": dict(stats.messages),
            "hit_rate": {m: stats.hit_rate(m) for m in polls.methods},
            "idle_fast_forwards": stats.idle_fast_forwards,
            "bulk_ops": stats.bulk_ops,
            "skip": {m: polls.get_skip(m) for m in polls.methods},
            "counters": skip_counters(polls),
            "active": polls.active_methods(),
        }

    return {
        "log": log,
        "stuck": stuck,
        "now": sim.now,
        "events": sim.events_processed,
        "contexts": {context.name: snapshot(context) for context in contexts},
        "adjustments": controller.adjustments if controller else None,
    }


def assert_same(program):
    reference = play(program, install_reference, reference_attach)
    current = play(program)
    assert current == reference  # floats compared exactly
    return current


# -- generated programs --------------------------------------------------------

def nanoseconds(lo, hi):
    return st.integers(lo, hi).map(lambda n: n * NS)


masks = st.sampled_from((None, None, None, ("local", "mpl"), ("local", "tcp"),
                         ("mpl",), ("tcp",), METHODS))
skip_values = st.sampled_from((1, 2, 3, 5, 20, 50, 500))

# Waiting for a *count* under a mask could starve (the mask may hide the
# method the messages arrive on), so ``wait`` steps are never masked.
phase = st.one_of(
    st.builds(Phase, st.just("wait"), st.integers(1, 3)),
    st.builds(Phase, st.just("sleep"), nanoseconds(0, 6_000_000), mask=masks),
    st.builds(Phase, st.just("busy"), st.integers(0, 600),
              nanoseconds(0, 400_000), mask=masks),
    st.builds(Phase, st.just("poll"), st.integers(1, 4), mask=masks),
    st.builds(Phase, st.just("skip"), st.sampled_from(METHODS), skip_values),
    st.builds(Phase, st.just("reply"), mask=masks),
)

# TCP needs ~7 ms for its first message (5 ms connect + 2 ms latency) and
# 64 KiB takes ~8 ms on its wire: gaps up to 4 ms interleave arrivals
# with every kind of phase.
sends = st.lists(
    st.tuples(nanoseconds(0, 4_000_000),
              st.one_of(st.just(0), st.integers(0, 65_536))),
    max_size=4).map(tuple)

programs = st.builds(
    Program,
    skips=st.lists(st.tuples(st.sampled_from(METHODS), skip_values),
                   max_size=3).map(tuple),
    blocking_tcp=st.booleans(),
    adaptive=st.none() | st.tuples(st.sampled_from(("tcp", "mpl")),
                                   st.integers(1, 6),
                                   nanoseconds(100_000, 5_000_000)),
    threaded=st.booleans(),
    mpl_sends=sends,
    tcp_sends=sends,
    phases=st.lists(phase, max_size=8).map(tuple),
)


@PROFILE
@given(programs)
def test_lane_manager_matches_the_reference(program):
    assert_same(program)


# -- the named cases, pinned ---------------------------------------------------

US = 1000 * NS
BURST = tuple((150 * US, size) for size in (0, 4096, 65_536, 64))

NAMED = {
    "figure6-shape": Program(
        skips=(("tcp", 20),), mpl_sends=BURST, tcp_sends=BURST,
        phases=(Phase("wait", 2), Phase("reply"), Phase("wait", 3),
                Phase("reply"))),
    "selective-tcp-busy-phases": Program(
        skips=(("tcp", 50),), mpl_sends=BURST, tcp_sends=BURST[:2],
        phases=(Phase("busy", 400, 200 * US, mask=("local", "mpl")),
                Phase("busy", 120, 0.0),
                Phase("sleep", 3000 * US, mask=("local", "mpl")),
                Phase("wait", 1),
                Phase("busy", 90, 50 * US, mask=("tcp",)))),
    "blocking-tcp-event-waits": Program(
        blocking_tcp=True, threaded=True, mpl_sends=BURST[:2],
        tcp_sends=BURST,
        phases=(Phase("sleep", 9000 * US), Phase("poll", 3),
                Phase("sleep", 12_000 * US, mask=("mpl",)))),
    "adaptive-backs-off-then-recovers": Program(
        adaptive=("tcp", 2, 500 * US), mpl_sends=BURST,
        tcp_sends=((9000 * US, 128), (9000 * US, 128)),
        phases=(Phase("poll", 4), Phase("busy", 300, 100 * US),
                Phase("sleep", 5000 * US), Phase("skip", "mpl", 3),
                Phase("wait", 4), Phase("busy", 64, 0.0))),
    "adaptive-on-a-blocking-method": Program(
        blocking_tcp=True, adaptive=("tcp", 1, 100 * US),
        tcp_sends=BURST[:3], mpl_sends=BURST[:1],
        phases=(Phase("busy", 50, 0.0), Phase("wait", 2),
                Phase("poll", 2, mask=("local", "tcp")))),
    # Found by the deep profile, once true of both managers: an ``Event``
    # condition that fired *during* the 1 us loop charge was not looked
    # at again before the waiter went to sleep on the next arrival alone,
    # and with nothing else on its way that sleep never ended.  Held by
    # ``test_an_event_that_fires_during_the_loop_charge_ends_the_wait``.
    "lost-wake-up": Program(
        blocking_tcp=True,
        phases=(Phase("sleep", 200 * NS, mask=("local", "tcp")),)),
    # The second sleep's timeout wakes the waiter while an MPL message
    # sits in the device queue (the skip puts its deadline ~55 ms out)
    # and the next MPL message is still on its way: the deadline timeout
    # and the arrival signal both fire after the wake, and must do
    # nothing to it.
    "late-wake-children": Program(
        skips=(("mpl", 500),), mpl_sends=((0.0, 0), (1000 * US, 0)),
        phases=(Phase("sleep", 150 * US), Phase("sleep", 200 * US),
                Phase("wait", 2))),
}


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_cases(name):
    program = NAMED[name]
    outcome = assert_same(program)
    handled = [entry for entry in outcome["log"]
               if entry[0] == "me" and len(entry) == 2]
    if not outcome["stuck"]:
        assert len(handled) == len(program.mpl_sends) + len(program.tcp_sends)


def test_an_event_that_fires_during_the_loop_charge_ends_the_wait():
    """Regression for ``lost-wake-up``: the waiter's ``Event`` fires while
    the loop charges its ``poll_loop_cost``.  It must not be stuck, and it
    must return at the instant a stepwise loop would — its next
    ``predicate()`` check, after one poll cycle and one loop charge, with
    no idle fast-forward in between."""
    outcome = assert_same(NAMED["lost-wake-up"])
    assert not outcome["stuck"]
    me = outcome["contexts"]["me"]
    assert me["cycles"] == 1 and me["idle_fast_forwards"] == 0
    stepwise = (sum(me["poll_time"].values())
                + DEFAULT_COSTS.runtime.poll_loop_cost)
    assert outcome["log"] == [("sleep", stepwise)]


def failed_event_wait(install=None):
    """A ``ctx.wait(event)`` asleep in the idle fast-forward whose event
    another process fails 1 ms in: what the waiter saw, whether the
    event ended up defused, the engine's event count, and the waiter's
    poll cycles."""
    bed = make_sp2(nodes_a=1, nodes_b=0)
    sim = bed.sim
    ctx = bed.nexus.context(bed.hosts_a[0])
    if install is not None:
        install(ctx)
    event = Event(sim)
    seen = []

    def waiter():
        try:
            yield from ctx.wait(event)
        except RuntimeError as exc:
            seen.append((sim.now, str(exc)))

    def failer():
        yield sim.timeout(1e-3)
        event.fail(RuntimeError("boom"))

    bed.nexus.spawn(waiter())
    bed.nexus.spawn(failer())
    sim.run()
    return (seen, event.defused, sim.events_processed,
            ctx.poll_manager.stats.cycles)


def test_a_failed_event_ends_an_idle_wait_with_its_exception():
    """The idle wake fails with a failed child's exception and defuses
    the child, as the first-of join it replaced did: the waiter sees the
    exception at the failure instant (one poll cycle, then asleep until
    then), the simulator does not re-raise it, and the reference manager
    agrees on every count."""
    outcome = failed_event_wait()
    assert outcome == ([(0.001, "boom")], True, 9, 1)
    assert outcome == failed_event_wait(install_reference)


def test_the_named_cases_reach_the_paths_they_are_named_for():
    """A differential test proves nothing about a path neither side
    took: check the fast-forward, the bulk accounting, the mask and the
    controller all actually ran."""
    figure6 = play(NAMED["figure6-shape"])["contexts"]["me"]
    assert figure6["idle_fast_forwards"] > 0
    assert figure6["fires"]["tcp"] > 0 and figure6["messages"]["tcp"] == 4
    assert 0 < figure6["foreign_poll_total"]

    selective = play(NAMED["selective-tcp-busy-phases"])["contexts"]["me"]
    assert selective["bulk_ops"] == 610
    assert selective["counters"]["tcp"] < selective["counters"]["mpl"]

    blocking = play(NAMED["blocking-tcp-event-waits"])["contexts"]["me"]
    assert "tcp" not in blocking["fires"] and blocking["messages"]["tcp"] == 4
    assert blocking["active"] == ["local", "mpl"]

    adaptive = play(NAMED["adaptive-backs-off-then-recovers"])
    values = [value for _time, value in adaptive["adjustments"]]
    assert max(values) > 1 and values != sorted(values)  # up, then cut

    # Both sleeps end on their own timeouts, long before either message
    # is handled, so the waiter slept on the multi-child wake.
    late = play(NAMED["late-wake-children"])
    assert late["log"][:2] == [("sleep", 150 * US), ("sleep", 350 * US)]
    assert late["log"][2][1] > 50_000 * US
    assert late["contexts"]["me"]["idle_fast_forwards"] >= 2
