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
from repro.load import FixedSize, FleetSpec, LoadScenario, OpenLoop, \
    run_scenario
from repro.mpi import MPIWorld
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


@wall_clock
def test_kernel_timeout_throughput():
    """Raw engine: timer-chain processes, nothing but the kernel."""

    def run_once():
        sim = Simulator()

        def chain():
            for _ in range(5_000):
                yield sim.timeout(1.0)

        for _ in range(10):
            sim.process(chain())
        sim.run()
        assert sim.events_processed >= 50_000
        return sim.events_processed

    rate = _best_rate(run_once)
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


#: Host calls (Python and C, as ``cProfile`` counts them) of one warm
#: ``dual_pingpong(0, 20, mpl_roundtrips=50)``: 19,803 when an untraced
#: poll stopped collecting from empty lanes, the idle wake became one
#: plain ``Event`` and the fast send path lost its ``_route`` hop; 21,438
#: before, 30,050 before lane records and one-frame blocking operations.
#: The budget is that count plus 10 %.
DUAL_PINGPONG_CALL_BUDGET = 21_800


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
#: halo swap of an 8-element array): 21,437 when a rank bound its
#: startpoint to a peer on first use (2 of 4 here) and shared the peer's
#: table instead of copying it; 21,608 when an MPI envelope became one
#: header element, ``Buffer`` elements one frame each, the payload codec
#: class-keyed and a receive's wait one bound-method check; 28,139
#: before.  The budget is that count plus 10 %.
MPI_EXCHANGE_CALL_BUDGET = 23_580


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
#: 200/s for 0.2 s, 160 RSRs) plus a read of its timeline: 51,056 when a
#: registry histogram observation became one append folded on read, a
#: span transition one frame and a traced empty poll one append; 57,133
#: before, 79,118 before the timeline folded on read.  The budget is that
#: count plus 10 %.
SCENARIO_CALL_BUDGET = 56_100


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
