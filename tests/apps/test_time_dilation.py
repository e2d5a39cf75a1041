"""Time dilation: every cost of a Table 1 row lives in the cost model.

``DEFAULT_COSTS.scaled(k)`` multiplies every time constant of the cost
structure by ``k`` and divides every bandwidth by ``k`` — the
transports' ``TransportCosts``, ``RuntimeCosts`` (the MPI per-call
overhead included) and the SP2 switch's ``LinkProfile`` — and
``dilate`` does the same to ``ClimateConfig``'s compute seconds and
latency budget, each by the units its fields declare.  A power of two
scales a binary float without rounding, so every simulated time must then
double *exactly*, and so must it halve at K = 1/2.  A row that does not
names a time constant that lives outside the model, where a sensitivity
sweep over the model cannot reach it.  The same holds for the Figure 4
and Figure 6 kernels, whose testbed takes the dilated costs, and for the
PVM baseline, whose daemons' relay cost is a ``RuntimeCosts`` field.  K = 3 is
the control: no power of two, so rounding shows and the times are not
exactly tripled, which is what gives the exact comparisons their teeth.
"""

import functools

import pytest

from repro.apps.climate import ClimateConfig, ClimateMode
from repro.apps.climate.model import run_coupled_model
from repro.apps.dualpingpong import dual_pingpong
from repro.apps.pingpong import nexus_pingpong
from repro.baselines import PvmSystem
from repro.baselines.workload import _baseline_bodies
from repro.load.arrivals import MixedRoundPattern
from repro.testbeds import make_sp2
from repro.transports.costmodels import DEFAULT_COSTS
from repro.util.units import dilate


def dilated_testbed(k, nodes_a, nodes_b):
    """An SP2 testbed whose costs are dilated by ``k``."""
    return make_sp2(nodes_a=nodes_a, nodes_b=nodes_b,
                    costs=DEFAULT_COSTS.scaled(k))


@functools.lru_cache(maxsize=None)
def row(mode, skip_poll, k):
    """One Table 1 row at ``steps=2`` with every cost dilated by ``k``."""
    return run_coupled_model(dilate(ClimateConfig(steps=2), k), mode,
                             skip_poll=skip_poll,
                             costs=DEFAULT_COSTS.scaled(k))


def times(result):
    return (result.seconds_per_step, result.coupling_wait,
            result.tcp_poll_time)


def outcome(result):
    return (result.atmo_checksum, result.ocean_checksum,
            result.events_processed)


#: Table 1's rows as ``(mode, skip_poll)``.
TABLE1_ROWS = [(ClimateMode.SELECTIVE, 1), (ClimateMode.ALL_TCP, 1),
               (ClimateMode.SKIP_POLL, 1), (ClimateMode.SKIP_POLL, 100),
               (ClimateMode.SKIP_POLL, 13000)]
ROW_IDS = [f"{mode.value}-{skip}" for mode, skip in TABLE1_ROWS]


@pytest.mark.parametrize("mode", [ClimateMode.FORWARDING,
                                  ClimateMode.ADAPTIVE])
def test_doubling_every_cost_doubles_every_simulated_time(mode):
    base, slow = row(mode, 1, 1), row(mode, 1, 2)
    assert times(slow) == tuple(2 * t for t in times(base))
    assert outcome(slow) == outcome(base)


@pytest.mark.parametrize("k", [0.5, 2])
@pytest.mark.parametrize("mode, skip_poll", TABLE1_ROWS, ids=ROW_IDS)
def test_table1_row_dilates_exactly(mode, skip_poll, k):
    base, dilated = row(mode, skip_poll, 1), row(mode, skip_poll, k)
    assert times(dilated) == tuple(k * t for t in times(base))
    assert outcome(dilated) == outcome(base)


@pytest.mark.parametrize("mode, skip_poll", TABLE1_ROWS, ids=ROW_IDS)
def test_table1_row_at_k3_is_not_exact(mode, skip_poll):
    base, dilated = row(mode, skip_poll, 1), row(mode, skip_poll, 3)
    assert times(dilated) != tuple(3 * t for t in times(base))
    assert outcome(dilated) == outcome(base)


@pytest.mark.parametrize("k", [0.5, 2])
@pytest.mark.parametrize("size", [0, 65536])
@pytest.mark.parametrize("cross_partition", [False, True], ids=["mpl", "tcp"])
def test_nexus_pingpong_dilates_exactly(cross_partition, size, k):
    methods = ("local", "mpl", "tcp") if cross_partition else ("local", "mpl")
    layout = (1, 1) if cross_partition else (2, 0)

    def elapsed(scale):
        return nexus_pingpong(size, 10, methods=methods,
                              cross_partition=cross_partition,
                              testbed=dilated_testbed(scale, *layout)).elapsed

    assert elapsed(k) == k * elapsed(1)


def dual(k, skip_poll):
    result = dual_pingpong(1000, skip_poll, mpl_roundtrips=50,
                           testbed=dilated_testbed(k, 3, 1))
    return result.elapsed, result.tcp_roundtrips


@pytest.mark.parametrize("k", [0.5, 2])
@pytest.mark.parametrize("skip_poll", [1, 20])
def test_dual_pingpong_dilates_exactly(skip_poll, k):
    base, base_trips = dual(1, skip_poll)
    assert dual(k, skip_poll) == (k * base, base_trips)


def test_dual_pingpong_at_k3_is_not_exact():
    base, base_trips = dual(1, 20)
    dilated, trips = dual(3, 20)
    assert dilated != 3 * base and trips == base_trips


def pvm(k):
    """The mixed workload's PVM row (10 rounds) on a testbed dilated by
    ``k``: its finish time, relayed messages and events."""
    bed = dilated_testbed(k, 2, 2)
    nexus = bed.nexus
    contexts = [nexus.context(h, f"p{i}") for i, h in enumerate(bed.hosts)]
    system = PvmSystem.build(nexus, contexts)
    bodies = _baseline_bodies(system, 10, MixedRoundPattern(
        local_bytes=2048, remote_bytes=16 * 1024, remote_every=5))
    nexus.run(until=nexus.sim.all_of([nexus.spawn(body)
                                      for body in bodies]))
    return nexus.now, system.messages_relayed, nexus.sim.events_processed


def test_pvm_baseline_dilates_exactly():
    base, relayed, events = pvm(1)
    assert relayed > 0
    assert pvm(2) == (2 * base, relayed, events)
