"""Tests for communication descriptors and cost models."""

import dataclasses
import typing

import pytest

from repro.apps.climate import ClimateConfig
from repro.simnet import LinkProfile
from repro.transports.base import Descriptor
from repro.transports.costmodels import (
    DEFAULT_COSTS,
    MPL_COSTS,
    TCP_COSTS,
    RuntimeCosts,
    TransportCosts,
)
from repro.util.units import UNITS, mbps, microseconds


class TestDescriptor:
    def test_param_lookup(self):
        d = Descriptor("mpl", 5, (("node", 3), ("session", 1001)))
        assert d.param("node") == 3
        assert d.param("missing") is None
        assert d.param("missing", "dflt") == "dflt"

    def test_with_param_replaces(self):
        d = Descriptor("tcp", 5, (("host", 1),))
        via = d.with_param("via", 9)
        assert via.param("via") == 9
        assert via.param("host") == 1
        assert d.param("via") is None  # original untouched
        replaced = via.with_param("via", 10)
        assert replaced.param("via") == 10
        assert len(replaced.params) == 2

    def test_wire_roundtrip(self):
        d = Descriptor("mpl", 7, (("node", 3), ("session", 1002)))
        assert Descriptor.from_wire(d.to_wire()) == d

    def test_wire_size_is_tens_of_bytes(self):
        d = Descriptor("mpl", 7, (("node", 3), ("session", 1002)))
        assert 10 <= d.wire_size <= 100

    def test_hashable(self):
        d1 = Descriptor("tcp", 1, (("host", 1),))
        d2 = Descriptor("tcp", 1, (("host", 1),))
        assert d1 == d2 and hash(d1) == hash(d2)
        assert len({d1, d2}) == 1


class TestCostModels:
    def test_paper_constants(self):
        """The calibration constants Section 3.3/4 reports must hold."""
        assert MPL_COSTS.bandwidth == mbps(36.0)
        assert MPL_COSTS.poll_cost == microseconds(15.0)
        assert TCP_COSTS.bandwidth == mbps(8.0)
        assert TCP_COSTS.poll_cost > microseconds(100.0)

    def test_tcp_steals_device_time_mpl_does_not(self):
        assert TCP_COSTS.steals_device_time
        assert not MPL_COSTS.steals_device_time

    def test_default_costs_cover_all_builtins(self):
        from repro.transports.registry import BUILTIN_TRANSPORTS
        for name in BUILTIN_TRANSPORTS:
            assert name in DEFAULT_COSTS.transports, f"no costs for {name}"

    def test_replace(self):
        modified = dataclasses.replace(TCP_COSTS, poll_cost=1e-6)
        assert modified.poll_cost == 1e-6
        assert modified.bandwidth == TCP_COSTS.bandwidth
        assert TCP_COSTS.poll_cost > 1e-6  # original frozen

    def test_runtime_costs_sane(self):
        rc = DEFAULT_COSTS.runtime
        assert 0.0 < rc.select_drain_overlap < 1.0
        assert rc.header_bytes > 0
        assert rc.poll_loop_cost > 0.0

    def test_costs_are_frozen(self):
        with pytest.raises(Exception):
            TCP_COSTS.poll_cost = 0.0  # type: ignore[misc]

    def test_custom_costs(self):
        costs = TransportCosts(latency=1e-3, bandwidth=1e6, poll_cost=1e-5)
        assert costs.send_overhead == 0.0
        assert costs.reliable


@pytest.mark.parametrize("cls", [TransportCosts, RuntimeCosts, LinkProfile,
                                 ClimateConfig])
def test_every_float_field_declares_its_unit(cls):
    """``dilate`` scales by declared units, so a float field with none
    would escape every dilation and sensitivity sweep silently."""
    hints = typing.get_type_hints(cls)
    undeclared = [field.name for field in dataclasses.fields(cls)
                  if hints[field.name] is float
                  and field.metadata.get("unit") not in UNITS]
    assert not undeclared, f"{cls.__name__} fields with no unit: {undeclared}"

