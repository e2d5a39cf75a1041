"""Time dilation: every cost of a Table 1 row lives in the cost model.

Scale every time constant of the cost model by 2 and every bandwidth by
1/2 — the transports' ``TransportCosts``, ``RuntimeCosts``, the SP2
switch's TCP ``LinkProfile``, ``MpiConfig.call_overhead`` and
``ClimateConfig``'s compute seconds and latency budget.  A power of two
scales a binary float without rounding, so every simulated time must then
double *exactly*.  A row that does not names a time constant that lives
outside the model, where a sensitivity sweep over the model cannot reach
it.
"""

import dataclasses

import pytest

from repro.apps.climate import ClimateConfig, ClimateMode
from repro.apps.climate.model import run_coupled_model
from repro.mpi import MpiConfig
from repro.testbeds import SP2_SWITCH_TCP
from repro.transports.costmodels import (
    DEFAULT_COSTS,
    DEFAULT_RUNTIME_COSTS,
    TransportCosts,
)

TRANSPORTS = ("local", "mpl", "tcp")

#: Fields holding seconds (or seconds per byte), per cost dataclass.
TRANSPORT_TIMES = ("latency", "poll_cost", "send_overhead", "recv_overhead",
                   "connect_cost", "per_byte_send", "per_byte_recv")
RUNTIME_TIMES = ("rsr_send_overhead", "dispatch_cost", "poll_loop_cost",
                 "xdr_per_byte", "forward_overhead", "wait_loop_cycle")
LINK_TIMES = ("latency", "send_overhead", "recv_overhead")
CLIMATE_TIMES = ("atmo_compute_s", "ocean_compute_s",
                 "adaptive_latency_budget")


def _scaled(obj, fields, k, bandwidth=False):
    changes = {name: getattr(obj, name) * k for name in fields}
    if bandwidth:
        changes["bandwidth"] = obj.bandwidth / k
    return dataclasses.replace(obj, **changes)


def dilate(k):
    """``run_coupled_model`` arguments with every time constant x ``k``
    and every bandwidth / ``k``."""
    costs: dict[str, TransportCosts] = {
        name: _scaled(DEFAULT_COSTS[name], TRANSPORT_TIMES, k, True)
        for name in TRANSPORTS}
    return dict(
        costs=costs,
        runtime_costs=_scaled(DEFAULT_RUNTIME_COSTS, RUNTIME_TIMES, k),
        switch_tcp=_scaled(SP2_SWITCH_TCP, LINK_TIMES, k, True),
        mpi_config=_scaled(MpiConfig(), ("call_overhead",), k))


@pytest.mark.parametrize("mode", [ClimateMode.FORWARDING,
                                  ClimateMode.ADAPTIVE])
def test_doubling_every_cost_doubles_every_simulated_time(mode):
    cfg = ClimateConfig(steps=2)
    base = run_coupled_model(cfg, mode, **dilate(1))
    slow = run_coupled_model(_scaled(cfg, CLIMATE_TIMES, 2), mode,
                             **dilate(2))
    assert slow.seconds_per_step == 2 * base.seconds_per_step
    assert slow.coupling_wait == 2 * base.coupling_wait
    assert slow.tcp_poll_time == 2 * base.tcp_poll_time
    assert (slow.atmo_checksum, slow.ocean_checksum,
            slow.events_processed) == (base.atmo_checksum,
                                       base.ocean_checksum,
                                       base.events_processed)
