"""Runtime counters live in the runtime's metrics registry.

Each scenario below runs with every runtime it builds watched, and
each kept counter, summed over those runtimes, must equal the value the
counter had when these counts were first taken — so moving a counter
between mechanisms cannot change what it counts.
"""

import pytest

from repro import obs as _obs
from repro.apps.climate.chaos import run_chaos_climate
from repro.apps.collab import run_collab
from repro.core.buffers import Buffer
from repro.core.runtime import Nexus
from repro.load import FixedSize, FleetSpec, LoadScenario, OpenLoop, \
    run_scenario
from repro.place import forwarding_placement
from repro.testbeds import make_iway

#: Every runtime counter these scenarios can bump; a scenario's table
#: names the ones it does, and every other one must read 0.
KEPT = (
    "nexus.rsrs_sent", "nexus.startpoints_imported",
    "nexus.xdr_conversions", "nexus.health_probes", "nexus.rsr_retries",
    "nexus.rsr_failovers", "forwarding.installs", "forwarding.messages",
    "aal5.connections", "tcp.connections", "udp.connections",
    "mcast.joins", "mcast.group_sends",
)


def _heterogeneous():
    """Two SP2 -> CAVE RSRs (XDR-converted) and one over a startpoint
    imported at the CAVE; returns the startpoints it made."""
    bed = make_iway()
    nexus = bed.nexus
    sp2 = nexus.context(bed.sp2_hosts[0])
    cave = nexus.context(bed.cave_host)
    log = []
    cave.register_handler("h", lambda c, e, buf: log.append(nexus.now))
    sp = sp2.startpoint_to(cave.new_endpoint())
    moved = cave.import_startpoint(sp.to_wire())

    def sender():
        yield from sp.rsr("h", Buffer().put_padding(10_000))
        yield from sp.rsr("h", Buffer().put_padding(10_000))
        yield from moved.rsr("h", Buffer().put_padding(100))

    def receiver():
        yield from cave.wait(lambda: len(log) >= 3)

    done = nexus.spawn(receiver())
    nexus.spawn(sender())
    nexus.run(until=done)
    return [sp, moved]


def _forwarding_load():
    return run_scenario(LoadScenario(
        name="open",
        fleets=(FleetSpec("rpc", clients=4, arrival=OpenLoop(rate=50.0),
                          sizes=FixedSize(2048), route="remote"),),
        duration=0.2, placement=forwarding_placement()))


CASES = {
    "chaos_climate": (lambda: run_chaos_climate(seed=0), 2, {
        "nexus.rsrs_sent": 360, "nexus.health_probes": 6,
        "nexus.rsr_retries": 6, "nexus.rsr_failovers": 6,
        "tcp.connections": 16, "udp.connections": 8,
    }),
    "forwarding_load": (_forwarding_load, 1, {
        "nexus.rsrs_sent": 48, "forwarding.installs": 1,
        "forwarding.messages": 22, "tcp.connections": 6,
    }),
    "collab": (run_collab, 1, {
        "nexus.rsrs_sent": 27, "nexus.xdr_conversions": 77,
        "aal5.connections": 2, "mcast.joins": 4, "mcast.group_sends": 25,
    }),
    "heterogeneous": (_heterogeneous, 1, {
        "nexus.rsrs_sent": 3, "nexus.startpoints_imported": 1,
        "nexus.xdr_conversions": 2, "aal5.connections": 1,
    }),
}


def _run(case):
    run, _runtimes, _expected = CASES[case]
    with _obs.watching_runtimes() as runtimes:
        made = run()
    return made, runtimes


@pytest.mark.parametrize("case", sorted(CASES))
def test_counters_match_their_recorded_values(case):
    _made, runtimes = _run(case)
    _run_fn, n_runtimes, expected = CASES[case]
    assert len(runtimes) == n_runtimes
    counted = {name: sum(nexus.obs.metrics.count(name)
                         for nexus in runtimes)
               for name in KEPT}
    assert counted == {name: expected.get(name, 0) for name in KEPT}


def test_deleted_restatements_are_not_counted():
    _made, runtimes = _run("heterogeneous")
    (nexus,) = runtimes
    names = {name for name, _labels, _m in nexus.obs.metrics.collect()}
    assert not any(name.endswith((".messages_sent", ".bytes_sent",
                                  ".messages_dropped", ".bytes_dropped"))
                   for name in names)
    assert "nexus.rsrs_dispatched" not in names
    assert sum(ctx.rsrs_dispatched for ctx in nexus.contexts.values()) == 3


def test_rsrs_sent_is_the_sum_over_startpoints():
    """``core.rsr_per_s`` in perfbench reads this count through
    ``nexus.tracer``, the registry's old name."""
    made, (nexus,) = _run("heterogeneous")
    assert nexus.tracer is nexus.obs.metrics
    assert nexus.tracer.count("nexus.rsrs_sent") \
        == sum(sp.rsrs_sent for sp in made) == 3


def test_tracer_is_read_only():
    nexus = Nexus()
    with pytest.raises(AttributeError):
        nexus.tracer = None
