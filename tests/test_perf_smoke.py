"""Performance smoke tests: the kernel must stay fast, and the hot paths
lean.

Two wall-clock tests are coarse tripwires, not benchmarks: they assert
events-per-second above a floor set far below what any healthy checkout
achieves (roughly 10-20x headroom on 2020s hardware), so they only fire
on order-of-magnitude slowdowns — an accidentally quadratic queue, debug
logging left on the hot path, and the like.  The precise tracking of
wall-clock performance lives in ``python -m perfbench`` (see
``perfbench/README.md``).

The rest read no clock: event counts, ``cProfile`` call budgets and the
frames an idle wake-up re-enters repeat exactly, so they run everywhere.

Set ``REPRO_SKIP_PERF_SMOKE=1`` to skip the two wall-clock tests (e.g.
on heavily shared or instrumented runners where even the generous floor
is unreliable).
"""

import cProfile
import inspect
import os
import sys
import time

import numpy as np
import pytest

import repro.obs as obs
from repro.apps.dualpingpong import dual_pingpong
from repro.apps.pingpong import nexus_pingpong, raw_transport_pingpong
from repro.core.buffers import Buffer
from repro.core.forwarding import ForwardingService
from repro.load import FixedSize, FleetSpec, LoadScenario, OpenLoop, \
    run_scenario
from repro.mpi import MPIWorld
from repro.obs.critpath import write_critpaths
from repro.obs.graph import write_graph
from repro.obs.stream import StreamConfig, fold_stream
from repro.obs.timeline import timeline_document
from repro.simnet import Simulator
from repro.testbeds import make_sp2

#: Conservative floors (simulator events per second of wall time).
KERNEL_FLOOR = 50_000
STACK_FLOOR = 10_000

#: Marks the wall-clock tests only: the deterministic ones always run.
wall_clock = pytest.mark.skipif(
    os.environ.get("REPRO_SKIP_PERF_SMOKE", "") not in ("", "0"),
    reason="REPRO_SKIP_PERF_SMOKE set",
)


def _best_rate(run_once, attempts=3):
    """Best events-per-second over a few attempts (shrugs off a one-off
    scheduler stall that a single timing could not)."""
    best = 0.0
    for _ in range(attempts):
        started = time.perf_counter()
        events = run_once()
        elapsed = time.perf_counter() - started
        best = max(best, events / max(elapsed, 1e-9))
    return best


def _sleep_chains():
    """10 processes that each sleep 5,000 times: nothing but the kernel.
    Returns the events processed."""
    sim = Simulator()

    def chain():
        for _ in range(5_000):
            yield 1.0

    for _ in range(10):
        sim.process(chain())
    sim.run()
    assert sim.events_processed >= 50_000
    return sim.events_processed


@wall_clock
def test_kernel_timeout_throughput():
    """Raw engine: sleep-chain processes, nothing but the kernel."""
    rate = _best_rate(_sleep_chains)
    assert rate > KERNEL_FLOOR, (
        f"kernel throughput {rate:,.0f} events/s below the "
        f"{KERNEL_FLOOR:,} floor — hot-path regression?")


@wall_clock
def test_full_stack_throughput():
    """Nexus stack end to end: RSR ping-pong over the SP2 testbed."""

    def run_once():
        with obs.watching_runtimes() as watched:
            nexus_pingpong(64, 200)
        events = sum(nexus.sim.events_processed for nexus in watched)
        assert events > 0
        return events

    rate = _best_rate(run_once)
    assert rate > STACK_FLOOR, (
        f"stack throughput {rate:,.0f} events/s below the "
        f"{STACK_FLOOR:,} floor — hot-path regression?")


def test_raw_spin_events_do_not_grow_with_message_size():
    """Deterministic tripwire for the raw baseline's spin elision: the
    hand-coded MPL ping-pong costs the same number of events per message
    whatever the wire time (it used to pay two per empty poll: 1,600
    events at 0 B, 174,332 at 256 KiB for the same round trips)."""

    def events(size):
        with obs.watching_runtimes() as watched:
            raw_transport_pingpong(size, 48)
        return sum(nexus.sim.events_processed for nexus in watched)

    assert events(0) == events(256 * 1024)


def _host_calls(run):
    """``cProfile``'s call count for ``run()``, after one warm-up call
    (the first pays one-off lazy initialisation)."""

    def calls():
        profile = cProfile.Profile()
        profile.enable()
        run()
        profile.disable()
        return sum(entry.callcount for entry in profile.getstats())

    calls()
    return calls()


#: Host calls (Python and C, as ``cProfile`` counts them) of the ten
#: sleep chains: 250,116 (five per sleep: ``heappop``, ``_resume``,
#: ``send``, the generator, ``heappush``) when a process slept by
#: yielding its delay onto its own reused timer; 350,156 when each
#: sleep built a ``Timeout`` and appended its waiter.  The budget is
#: that count plus 10 %.
SLEEP_CHAIN_CALL_BUDGET = 275_100


def test_kernel_sleep_host_calls_stay_within_budget():
    """Deterministic tripwire for host work per sleep in the kernel."""
    count = _host_calls(_sleep_chains)
    assert count <= SLEEP_CHAIN_CALL_BUDGET, (
        f"{count:,} host calls for 50,000 sleeps, budget "
        f"{SLEEP_CHAIN_CALL_BUDGET:,} — does a sleep build an event or "
        "append a waiter again?")


#: Host calls (Python and C, as ``cProfile`` counts them) of one warm
#: ``dual_pingpong(0, 20, mpl_roundtrips=50)``: 13,424 when the wait
#: loop drained its firing lanes in its own frame, the transports
#: drained by slice and dispatch looked up by subscript; 14,753 when a
#: healthy RSR made its first send attempt in ``rsr``'s own frame and
#: the transports resolved, counted and notified in line (17,170
#: before); 17,194 when a process
#: slept by yielding its delay and started without an init event
#: (19,583 before); 19,803 when an untraced poll stopped collecting
#: from empty lanes, the idle wake became one plain ``Event`` and the
#: fast send path lost its ``_route`` hop; 21,438 before that, 30,050
#: before lane records and one-frame blocking operations.  The budget
#: is that count plus 10 %.
DUAL_PINGPONG_CALL_BUDGET = 14_770


def test_unified_poll_host_calls_stay_within_budget():
    """Deterministic tripwire for host work on the unified-poll fast
    path: the simulation is fixed, so the call count repeats to the call
    and only moves when the code does."""
    count = _host_calls(lambda: dual_pingpong(0, 20, mpl_roundtrips=50))
    assert count <= DUAL_PINGPONG_CALL_BUDGET, (
        f"{count:,} host calls for the fixed dual ping-pong, budget "
        f"{DUAL_PINGPONG_CALL_BUDGET:,} — did a wrapper generator or a "
        "per-method dict come back to the poll loop?")


#: Host calls of one warm ``_mpi_exchange()`` (4 ranks over MPL and TCP,
#: 10 rounds of a ring ``sendrecv`` and an ``irecv``/``send``/``wait``
#: halo swap of an 8-element array): 15,787 when the wait loop drained
#: its firing lanes in its own frame, the transports drained by slice
#: and dispatch looked up by subscript; 16,627 when a healthy RSR made
#: its first send attempt in ``rsr``'s own frame and the transports
#: resolved, counted and notified in line (18,559 before); 21,437 when
#: a rank bound its startpoint to a peer on first use (2 of 4 here) and
#: shared the peer's table instead of copying it; 21,608 when an MPI envelope became one
#: header element, ``Buffer`` elements one frame each, the payload codec
#: class-keyed and a receive's wait one bound-method check; 28,139
#: before.  The budget is that count plus 10 %.
MPI_EXCHANGE_CALL_BUDGET = 17_370


def _mpi_exchange(rounds=10):
    bed = make_sp2(nodes_a=2, nodes_b=2)
    world = MPIWorld(bed.nexus, [bed.nexus.context(h) for h in bed.hosts])
    n = world.size

    def body(proc):
        right, left = (proc.rank + 1) % n, (proc.rank - 1) % n
        edge = np.full(8, float(proc.rank))
        total = 0.0
        for step in range(rounds):
            got, _status = yield from proc.sendrecv(edge, right, step,
                                                    left, step)
            total += got[0]
            request = proc.irecv(right, 100 + step)
            yield from proc.send(edge, left, 100 + step)
            got, _status = yield from request.wait()
            total += got[0]
        return total

    handles = world.run_spmd(body)
    bed.nexus.run(until=bed.nexus.sim.all_of(handles))
    assert [handle.value for handle in handles] == [40.0, 20.0, 40.0, 20.0]


def test_mpi_exchange_host_calls_stay_within_budget():
    """Deterministic tripwire for host work on the MPI point-to-point
    path: every message is packed, enveloped, matched and waited on."""
    count = _host_calls(_mpi_exchange)
    assert count <= MPI_EXCHANGE_CALL_BUDGET, (
        f"{count:,} host calls for the fixed MPI exchange, budget "
        f"{MPI_EXCHANGE_CALL_BUDGET:,} — is an envelope field back to one "
        "element each, or a property back on the receive's wait check?")


def _forwarded_pingpong(roundtrips):
    """A ping-pong between an external context and a partition member
    whose TCP traffic routes through a forwarder: each ball goes out
    over TCP to the forwarder, on over MPL, and back over plain TCP."""
    bed = make_sp2(nodes_a=2, nodes_b=1)
    nexus = bed.nexus
    forwarder = nexus.context(bed.hosts_a[0], "fwd")
    member = nexus.context(bed.hosts_a[1], "member")
    external = nexus.context(bed.hosts_b[0], "ext")
    ForwardingService(nexus).install(forwarder, [forwarder, member])
    counts = {member.id: 0, external.id: 0}

    def bump(ctx, _ep, _buf):
        counts[ctx.id] += 1

    member.register_handler("ball", bump)
    external.register_handler("ball", bump)
    out = external.startpoint_to(member.new_endpoint())
    back = member.startpoint_to(external.new_endpoint())

    def external_side():
        for i in range(roundtrips):
            yield from out.rsr("ball", Buffer())
            yield from external.wait(lambda: counts[external.id] > i)

    def member_side():
        for i in range(roundtrips):
            yield from member.wait(lambda: counts[member.id] > i)
            yield from back.rsr("ball", Buffer())

    done = nexus.spawn(external_side())
    nexus.spawn(member_side())
    nexus.run(until=done)
    assert counts[member.id] == roundtrips
    assert forwarder.forwarder.messages_forwarded == roundtrips


def _multicast_fan_out(rsrs, members=3):
    """``rsrs`` RSRs on one startpoint bound to ``members`` endpoints of
    one multicast group: each is one group send."""
    methods = ("local", "mpl", "tcp", "mcast")
    bed = make_sp2(nodes_a=members + 1, nodes_b=0, transports=methods)
    nexus = bed.nexus
    contexts = [nexus.context(host, methods=methods)
                for host in bed.hosts_a]
    mcast = nexus.transports.get("mcast")
    got = {ctx.id: 0 for ctx in contexts}

    def bump(ctx, _ep, _buf):
        got[ctx.id] += 1

    for ctx in contexts:
        mcast.join("g", ctx)
        ctx.poll_manager.add_method("mcast")
        ctx.register_handler("u", bump)
    sender, *receivers = contexts
    startpoint = sender.new_startpoint()
    for ctx in receivers:
        table = ctx.export_table().add(mcast.descriptor_for_group(ctx, "g"),
                                       position=0)
        startpoint.bind_address(ctx.id, ctx.new_endpoint().id, table)
    startpoint.set_method("mcast")

    def send():
        for _ in range(rsrs):
            yield from startpoint.rsr("u", Buffer())

    def receive(ctx):
        yield from ctx.wait(lambda: got[ctx.id] >= rsrs)

    waits = [nexus.spawn(receive(ctx)) for ctx in receivers]
    nexus.spawn(send())
    nexus.run(until=nexus.sim.all_of(waits))
    assert nexus.obs.metrics.count("mcast.group_sends") == rsrs


#: Host calls per roundtrip (per RSR for the fan-out), measured as the
#: difference between 300 and 100 of a warm run: MPL 224, cross-partition
#: TCP 280, forwarded 339 and multicast fan-out 281.6 when the wait loop
#: drained its firing lanes in its own frame, the transports drained by
#: slice and dispatch looked up by subscript; 248, 298, 362 and 308.6
#: when a healthy RSR made its first send attempt in ``rsr``'s own frame
#: and the transports resolved, counted and notified in line; 292, 356,
#: 427 and 327.6 before.  Each budget is that count plus 10 %.
PATH_CALL_BUDGETS = {
    "mpl": (lambda n: nexus_pingpong(0, n, methods=("local", "mpl")), 247),
    "tcp": (lambda n: nexus_pingpong(0, n, methods=("local", "mpl", "tcp"),
                                     cross_partition=True), 308),
    "forwarded": (_forwarded_pingpong, 373),
    "multicast": (_multicast_fan_out, 310),
}


@pytest.mark.parametrize("path", sorted(PATH_CALL_BUDGETS))
def test_per_message_host_calls_stay_within_budget(path):
    """Deterministic tripwire for host work per message on each send
    path: the fixed start-up and tear-down cancel in the difference."""
    run, budget = PATH_CALL_BUDGETS[path]
    per_message = (_host_calls(lambda: run(300))
                   - _host_calls(lambda: run(100))) / 200
    assert per_message <= budget, (
        f"{per_message:,} host calls per {path} message, budget "
        f"{budget:,} — is a layer crossing back on the RSR path, or a "
        "dict.get where a subscript or attribute read would do?")


#: Host calls of building one ``MPIWorld`` over ready contexts, by rank
#: count: 84 and 228 when startpoints became bound on first use; 715 and
#: 5,963 when the world wired all n² of them up front, each with two
#: copies of its peer's table.  Each budget is that count plus 10 %.
WORLD_BUILD_CALL_BUDGETS = {8: 92, 24: 250}


def _world_build_calls(ranks):
    """Host calls of ``MPIWorld(...)`` alone, the testbed and contexts
    built outside the profile (after one warm-up build)."""

    def calls():
        bed = make_sp2(nodes_a=ranks // 2, nodes_b=ranks - ranks // 2)
        contexts = [bed.nexus.context(h) for h in bed.hosts]
        profile = cProfile.Profile()
        profile.enable()
        MPIWorld(bed.nexus, contexts)
        profile.disable()
        return sum(entry.callcount for entry in profile.getstats())

    calls()
    return calls()


def test_mpi_world_startup_is_linear_in_ranks():
    """Deterministic tripwire for the MPI startup exchange: a world keeps
    one published table per rank and wires no link before its first
    send, so building it costs O(ranks) host calls, not O(ranks²)."""
    counts = {ranks: _world_build_calls(ranks)
              for ranks in WORLD_BUILD_CALL_BUDGETS}
    assert counts[24] <= 3.5 * counts[8], (
        f"{counts} host calls to build 8- and 24-rank worlds: startup "
        "grows faster than the rank count — is the n² mesh back?")
    for ranks, budget in WORLD_BUILD_CALL_BUDGETS.items():
        assert counts[ranks] <= budget, (
            f"{counts[ranks]:,} host calls to build a {ranks}-rank world, "
            f"budget {budget:,}")


#: Host calls of one warm traced ``run_scenario`` (4 open-loop clients at
#: 200/s for 0.2 s, 160 RSRs) plus a read of its timeline: 33,944 when a
#: traced event became one record in the sink, the registry and the
#: timeline folding from the records when read and a traced poll miss
#: one more ``zeros``; 38,557 before (after the send and receive paths
#: lost their layer crossings), 51,056 when a registry histogram
#: observation became one append folded on read, a span transition one
#: frame and a traced empty poll one append; 57,133 before, 79,118
#: before the timeline folded on read.  The budget is that count plus
#: 10 %.
SCENARIO_CALL_BUDGET = 37_340


def test_traced_scenario_host_calls_stay_within_budget():
    """Deterministic tripwire for host work on the observability write
    path: every RSR of a load scenario is traced into the metrics
    registry and the timeline."""
    scenario = LoadScenario(
        name="budget",
        fleets=(FleetSpec("rpc", clients=4, arrival=OpenLoop(rate=200.0),
                          sizes=FixedSize(2048), route="remote"),),
        duration=0.2)

    def run():
        result = run_scenario(scenario)
        assert result.delivered == 160
        timeline_document(result.timeline)

    count = _host_calls(run)
    assert count <= SCENARIO_CALL_BUDGET, (
        f"{count:,} host calls for the fixed traced scenario, budget "
        f"{SCENARIO_CALL_BUDGET:,} — is the timeline observing twice "
        "again, or a handle lookup back on a per-event path?")


def _traced_pingpong(roundtrips):
    """An MPL ping-pong traced under ``obs.collecting()`` with a
    timeline attached, its registry and timeline read at the end: every
    RSR's spans, delivery and polls are recorded, then folded."""
    with obs.collecting():
        bed = make_sp2(nodes_a=2, nodes_b=0)
        timeline = bed.nexus.obs.enable_timeline(1e-3)
        nexus_pingpong(0, roundtrips, testbed=bed)
    bed.nexus.obs.metrics.snapshot()
    timeline_document(timeline)


#: Host calls per traced MPL roundtrip, measured as the difference
#: between 300 and 100 of a warm run: 296.645 when a traced event became
#: one record folded on read and a traced poll miss one more ``zeros``;
#: 350.535 before, when each span close, delivery and miss updated the
#: registry and the timeline on the spot.  The budget is that count plus
#: 10 %.
TRACED_ROUNDTRIP_CALL_BUDGET = 327


def test_traced_roundtrip_host_calls_stay_within_budget():
    """Deterministic tripwire for host work per traced RSR: an event is
    written once, to its sink, and costs nothing more until it is
    read."""
    per_roundtrip = (_host_calls(lambda: _traced_pingpong(300))
                     - _host_calls(lambda: _traced_pingpong(100))) / 200
    assert per_roundtrip <= TRACED_ROUNDTRIP_CALL_BUDGET, (
        f"{per_roundtrip:,} host calls per traced MPL roundtrip, budget "
        f"{TRACED_ROUNDTRIP_CALL_BUDGET:,} — does a span close, a delivery "
        "or a poll miss update the registry or the timeline on the spot "
        "again?")


#: Host calls of one warm ``fold_stream`` over the spool of that traced
#: scenario (163 RSR groups, 1,141 spans), plus writing its graph and
#: critical paths: 10,229 when the builders indexed each group in one
#: pass, the reader grew groups and buffered the timeline replay with
#: ``list +=``, and the exports built their dicts directly; 103,907
#: before.  The budget is that count plus 10 %.
FOLD_CALL_BUDGET = 11_250


def test_span_fold_host_calls_stay_within_budget(tmp_path):
    """Deterministic tripwire for host work on the observability read
    path: a fold's per-span cost is the ``Span`` it rebuilds (and a
    ``round`` per timed transit), the rest is per RSR group."""
    spool = str(tmp_path / "spool")
    with obs.collecting():
        result = run_scenario(LoadScenario(
            name="budget",
            fleets=(FleetSpec("rpc", clients=4,
                              arrival=OpenLoop(rate=200.0),
                              sizes=FixedSize(2048), route="remote"),),
            duration=0.2), stream=StreamConfig(directory=spool))
    assert result.delivered == 160

    def run():
        fold = fold_stream(spool)
        write_graph(str(tmp_path / "graph.json"), fold.graph)
        write_critpaths(str(tmp_path / "critpath.json"), fold.paths)

    count = _host_calls(run)
    assert count <= FOLD_CALL_BUDGET, (
        f"{count:,} host calls for the fixed span fold, budget "
        f"{FOLD_CALL_BUDGET:,} — is a builder back to a dict.get, an "
        "append or a key= call per span?")


def test_idle_wake_up_reenters_one_frame_below_the_application():
    """A blocking operation costs one generator frame below its caller:
    the event that wakes an idle ``ctx.wait`` resumes the application's
    generator and the wait loop's, and no pass-through frame between or
    below them."""
    bed = make_sp2(nodes_a=1, nodes_b=0)
    ctx = bed.nexus.context(bed.hosts_a[0])
    flag = []

    def application():
        yield from ctx.wait(lambda: bool(flag))

    bed.nexus.spawn(application())
    bed.sim.run()  # runs dry: the waiter sleeps on the next arrival
    ctx.note_arrival()  # ...which is now the only event queued

    resumed = []

    def on_call(frame, event, _arg):
        if event == "call" and frame.f_code.co_flags & inspect.CO_GENERATOR:
            resumed.append(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(on_call)
    try:
        bed.sim.step()
    finally:
        sys.setprofile(previous)
    assert resumed == ["application", "wait"]


def test_healthy_send_reenters_one_frame_below_the_rsr():
    """The first attempt of a healthy single-link RSR runs in ``rsr``'s
    own frame: the event that ends the transport's send-overhead sleep
    resumes the application, ``rsr`` and the transport's ``send``, and
    no retry-ladder frame between them."""
    bed = make_sp2(nodes_a=2, nodes_b=0)
    nexus = bed.nexus
    a = nexus.context(bed.hosts_a[0], methods=("local", "mpl"))
    b = nexus.context(bed.hosts_a[1], methods=("local", "mpl"))
    b.register_handler("h", lambda ctx, ep, buf: None)
    startpoint = a.startpoint_to(b.new_endpoint())

    def warm_up():
        yield from startpoint.rsr("h")

    nexus.run_until(warm_up())  # selects and connects MPL
    assert startpoint.current_methods() == ["mpl"]

    def application():
        yield from startpoint.rsr("h")

    process = nexus.spawn(application())
    resumed_by_step = []

    def on_call(frame, event, _arg):
        if event == "call" and frame.f_code.co_flags & inspect.CO_GENERATOR:
            resumed_by_step[-1].append(frame.f_code.co_name)

    previous = sys.getprofile()
    try:
        while process.is_alive:
            resumed_by_step.append([])
            sys.setprofile(on_call)
            bed.sim.step()
            sys.setprofile(previous)
    finally:
        sys.setprofile(previous)
    sending = [resumed for resumed in resumed_by_step if "send" in resumed]
    # Two steps enter the send: the one that starts it (ending rsr's
    # overhead sleep) and the one that ends its own overhead sleep.
    assert sending == [["application", "rsr", "send"]] * 2


def test_healthy_dispatch_reenters_one_frame_below_the_wait():
    """A received RSR is drained and dispatched in the wait loop's own
    frame: the events that start and end the dispatch charge of an idle
    MPL receiver resume the application, ``wait`` and ``dispatch``, and
    no drain helper between them."""
    bed = make_sp2(nodes_a=2, nodes_b=0)
    nexus = bed.nexus
    a = nexus.context(bed.hosts_a[0], methods=("local", "mpl"))
    b = nexus.context(bed.hosts_a[1], methods=("local", "mpl"))
    got = []
    b.register_handler("h", lambda ctx, ep, buf: got.append(buf))
    startpoint = a.startpoint_to(b.new_endpoint())

    def application():
        yield from b.wait(lambda: bool(got))

    process = nexus.spawn(application())
    bed.sim.run()  # runs dry: the receiver idles on the next arrival

    def sender():
        yield from startpoint.rsr("h")

    nexus.spawn(sender())
    resumed_by_step = []

    def on_call(frame, event, _arg):
        if event == "call" and frame.f_code.co_flags & inspect.CO_GENERATOR:
            resumed_by_step[-1].append(frame.f_code.co_name)

    previous = sys.getprofile()
    try:
        while process.is_alive:
            resumed_by_step.append([])
            sys.setprofile(on_call)
            bed.sim.step()
            sys.setprofile(previous)
    finally:
        sys.setprofile(previous)
    assert startpoint.current_methods() == ["mpl"] and len(got) == 1
    dispatching = [resumed for resumed in resumed_by_step
                   if "dispatch" in resumed]
    # Two steps enter the dispatch: the one that starts it (ending the
    # poll charge) and the one that ends its own dispatch charge.
    assert dispatching == [["application", "wait", "dispatch"]] * 2
