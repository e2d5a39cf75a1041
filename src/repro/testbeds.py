"""Canned simulated machine configurations used by tests, examples, and
benchmarks.

:func:`make_sp2` builds the environment every experiment in the paper ran
on: one IBM SP2 whose nodes are split into two software partitions, with
MPL available inside a partition and TCP available everywhere over the
switch (8 MB/s, ~2 ms).  :func:`make_iway` builds a small I-WAY-style
testbed: an SP2, a visualisation engine, and an instrument site joined by
ATM wide-area links — used by the metacomputing examples.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from .simnet.engine import Simulator
from .simnet.link import LinkProfile
from .simnet.network import Machine, Network, Partition
from .simnet.node import Host
from .core.health import HealthConfig
from .core.retry import RetryPolicy
from .core.runtime import Nexus
from .transports.costmodels import RuntimeCosts, TransportCosts
from .util.units import mbps, milliseconds

#: TCP over the SP2 switch: the profile the paper reports.
SP2_SWITCH_TCP = LinkProfile(
    name="sp2-switch-tcp", latency=milliseconds(2.0), bandwidth=mbps(8.0),
)


@dataclasses.dataclass
class SP2Testbed:
    """A two-partition SP2 with a Nexus runtime, ready for experiments."""

    sim: Simulator
    nexus: Nexus
    machine: Machine
    partition_a: Partition
    partition_b: Partition
    hosts_a: list[Host]
    hosts_b: list[Host]

    @property
    def hosts(self) -> list[Host]:
        return self.hosts_a + self.hosts_b


def make_sp2(nodes_a: int = 2, nodes_b: int = 2, *,
             transports: _t.Sequence[str] = ("local", "mpl", "tcp"),
             costs: _t.Mapping[str, TransportCosts] | None = None,
             runtime_costs: RuntimeCosts | None = None,
             seed: int = 0,
             switch_tcp: LinkProfile = SP2_SWITCH_TCP,
             retry_policy: "RetryPolicy | None" = None,
             health: "HealthConfig | None" = None,
             observe: bool | None = None) -> SP2Testbed:
    """Build the paper's experimental platform.

    ``nodes_a``/``nodes_b`` processors are placed in partitions "A" and
    "B" of one SP2.  MPL works within a partition (same session); TCP
    works between any two nodes over the switch at ``switch_tcp``.
    """
    sim = Simulator()
    network = Network(sim)
    machine = network.new_machine("sp2", {"tcp": switch_tcp,
                                          "udp": switch_tcp})
    hosts_a = machine.new_hosts(nodes_a)
    hosts_b = machine.new_hosts(nodes_b)
    partition_a = machine.new_partition("A", hosts_a)
    partition_b = machine.new_partition("B", hosts_b)
    nexus = Nexus(sim, network, transports=transports, costs=costs,
                  runtime_costs=runtime_costs, seed=seed,
                  retry_policy=retry_policy, health=health,
                  observe=observe)
    return SP2Testbed(sim=sim, nexus=nexus, machine=machine,
                      partition_a=partition_a, partition_b=partition_b,
                      hosts_a=hosts_a, hosts_b=hosts_b)


@dataclasses.dataclass
class IWayTestbed:
    """A miniature I-WAY: supercomputer + display + instrument over ATM."""

    sim: Simulator
    nexus: Nexus
    sp2: Machine
    cave: Machine
    instrument: Machine
    sp2_hosts: list[Host]
    cave_host: Host
    instrument_host: Host


def make_iway(sp2_nodes: int = 4, *,
              transports: _t.Sequence[str] = (
                  "local", "mpl", "aal5", "tcp", "udp", "mcast"),
              costs: _t.Mapping[str, TransportCosts] | None = None,
              seed: int = 0,
              wan_latency: float = milliseconds(10.0),
              wan_bandwidth: float = mbps(16.0)) -> IWayTestbed:
    """Build an I-WAY-style heterogeneous testbed.

    The SP2 and the CAVE display engine have ATM interfaces (AAL-5
    applicable between them); the instrument site is reachable only by
    routed IP (TCP/UDP) through the CAVE's site link.
    """
    sim = Simulator()
    network = Network(sim)

    sp2 = network.new_machine("sp2", {"tcp": SP2_SWITCH_TCP})
    cave = network.new_machine("cave")
    instrument = network.new_machine("instrument")

    sp2_hosts = sp2.new_hosts(sp2_nodes)
    sp2.new_partition("A", sp2_hosts)
    cave_host = cave.new_host("cave/display")
    instrument_host = instrument.new_host("instrument/daq")

    for host in sp2_hosts + [cave_host]:
        host.attributes["atm"] = True
    # Heterogeneous architectures: cross-machine traffic pays XDR costs.
    for host in sp2_hosts:
        host.attributes["arch"] = "power1"
        host.attributes["site"] = "anl"
    cave_host.attributes["arch"] = "sgi-onyx"
    cave_host.attributes["site"] = "eVL"
    instrument_host.attributes["arch"] = "sparc"
    instrument_host.attributes["site"] = "instrument-site"

    atm = LinkProfile(name="atm-oc3", latency=wan_latency,
                      bandwidth=wan_bandwidth)
    internet = LinkProfile(name="wan-ip", latency=milliseconds(25.0),
                           bandwidth=mbps(3.0))
    slow_ip = LinkProfile(name="site-ip", latency=milliseconds(25.0),
                          bandwidth=mbps(1.0))
    # The provisioned ATM circuit carries AAL-5 only; routed IP traffic
    # (TCP/UDP/multicast) takes the slower internet path — so an ATM
    # fault leaves IP connectivity intact (the failover scenario).
    network.connect(sp2, cave, atm, transports=("aal5",))
    network.connect(sp2, cave, internet, transports=("tcp", "udp", "mcast"))
    network.connect(cave, instrument, slow_ip,
                    transports=("tcp", "udp", "mcast"))

    nexus = Nexus(sim, network, transports=transports, costs=costs, seed=seed)
    return IWayTestbed(sim=sim, nexus=nexus, sp2=sp2, cave=cave,
                       instrument=instrument, sp2_hosts=sp2_hosts,
                       cave_host=cave_host, instrument_host=instrument_host)
