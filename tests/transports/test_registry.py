"""Tests for the transport registry (module loading machinery)."""

import dataclasses

import pytest

from repro.obs import MetricsRegistry
from repro.simnet import Network, Simulator
from repro.simnet.random import RandomStreams
from repro.testbeds import make_sp2
from repro.transports import (
    BUILTIN_TRANSPORTS,
    DEFAULT_COSTS,
    DEFAULT_TRANSPORT_SET,
    TcpTransport,
    Transport,
    TransportRegistry,
    TransportServices,
)
from repro.transports.errors import RegistryError
from repro.transports.layers import (
    CompressionLayer,
    FragmentationLayer,
    make_layered,
)


@pytest.fixture
def services():
    sim = Simulator()
    return TransportServices(sim, Network(sim), MetricsRegistry(),
                             RandomStreams(0), DEFAULT_COSTS.runtime)


@pytest.fixture
def registry(services):
    return TransportRegistry(services, DEFAULT_COSTS.transports)


class TestRegistry:
    def test_enable_and_get(self, registry):
        transport = registry.enable("tcp")
        assert isinstance(transport, TcpTransport)
        assert registry.get("tcp") is transport
        assert "tcp" in registry

    def test_enable_idempotent(self, registry):
        assert registry.enable("mpl") is registry.enable("mpl")

    def test_unknown_name_rejected(self, registry):
        with pytest.raises(RegistryError):
            registry.enable("nonexistent")
        with pytest.raises(RegistryError):
            registry.get("nonexistent")

    def test_default_set_exists(self):
        for name in DEFAULT_TRANSPORT_SET:
            assert name in BUILTIN_TRANSPORTS

    def test_names_fastest_first(self, registry):
        registry.enable_all(["tcp", "mpl", "local"])
        names = registry.names()
        assert names == ["local", "mpl", "tcp"]
        ranks = [registry.get(n).speed_rank for n in names]
        assert ranks == sorted(ranks)

    def test_custom_cost_override(self, services):
        from repro.transports.costmodels import TCP_COSTS
        registry = TransportRegistry(
            services, {"tcp": dataclasses.replace(TCP_COSTS, poll_cost=42.0)})
        assert registry.enable("tcp").costs.poll_cost == 42.0
        with pytest.raises(RegistryError, match="no cost model"):
            registry.enable("mpl")

    def test_speed_ranks_unique(self):
        ranks = [cls.speed_rank for cls in BUILTIN_TRANSPORTS.values()]
        assert len(set(ranks)) == len(ranks)

    def test_all_builtins_are_transports(self):
        for cls in BUILTIN_TRANSPORTS.values():
            assert issubclass(cls, Transport)
            assert isinstance(cls.name, str) and cls.name


class TestFunctionTable:
    """``Transport``'s abstract methods are the calls core makes."""

    def test_abstract_methods_are_what_core_calls(self):
        assert Transport.__abstractmethods__ == {
            "export_descriptor", "applicable", "send", "collect"}

    @pytest.mark.parametrize("name", sorted(BUILTIN_TRANSPORTS)
                             + ["lzw+tcp", "frag+mpl"])
    def test_collect_from_empty_containers_costs_and_creates_nothing(
            self, name):
        layered = "+" in name
        bed = make_sp2(nodes_a=1, nodes_b=0, transports=(
            "local", "mpl", "tcp") + (() if layered else (name,)))
        nexus = bed.nexus
        if layered:
            layer, inner = name.split("+")
            layer_type = {"lzw": CompressionLayer,
                          "frag": FragmentationLayer}[layer]
            make_layered(nexus.transports, inner, [layer_type()])
        context = nexus.context(bed.hosts_a[0])
        containers = (dict(context._inboxes), dict(context._device_queues))
        now, queued = nexus.sim.now, len(nexus.sim._heap)
        transport = nexus.transports.get(name)
        assert transport.collect(context) == []
        assert (dict(context._inboxes),
                dict(context._device_queues)) == containers
        assert (nexus.sim.now, len(nexus.sim._heap)) == (now, queued)
