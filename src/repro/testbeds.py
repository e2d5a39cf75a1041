"""Canned simulated machine configurations used by tests, examples, and
benchmarks.

:func:`make_sp2` builds the environment every experiment in the paper ran
on: one IBM SP2 whose nodes are split into two software partitions, with
MPL available inside a partition and TCP available everywhere over the
switch (8 MB/s, ~2 ms).  :func:`make_iway` builds a small I-WAY-style
testbed: an SP2, a visualisation engine, and an instrument site joined by
ATM wide-area links — used by the metacomputing examples.  Both build
their wires from the named link profiles of their ``costs=``.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from .simnet.engine import Simulator
from .simnet.network import Machine, Network, Partition
from .simnet.node import Host
from .core.health import HealthConfig
from .core.retry import RetryPolicy
from .core.runtime import Nexus
from .transports.costmodels import DEFAULT_COSTS, CostStructure


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
             costs: CostStructure = DEFAULT_COSTS,
             seed: int = 0,
             retry_policy: "RetryPolicy | None" = None,
             health: "HealthConfig | None" = None,
             observe: bool | None = None) -> SP2Testbed:
    """Build the paper's experimental platform.

    ``nodes_a``/``nodes_b`` processors are placed in partitions "A" and
    "B" of one SP2.  MPL works within a partition (same session); TCP
    works between any two nodes over the switch, at the ``sp2-switch-tcp``
    profile of ``costs``.
    """
    sim = Simulator()
    network = Network(sim)
    switch = costs.links["sp2-switch-tcp"]
    machine = network.new_machine("sp2", {"tcp": switch, "udp": switch})
    hosts_a = machine.new_hosts(nodes_a)
    hosts_b = machine.new_hosts(nodes_b)
    partition_a = machine.new_partition("A", hosts_a)
    partition_b = machine.new_partition("B", hosts_b)
    nexus = Nexus(sim, network, transports=transports, costs=costs,
                  seed=seed, retry_policy=retry_policy, health=health,
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
              costs: CostStructure = DEFAULT_COSTS) -> IWayTestbed:
    """Build an I-WAY-style heterogeneous testbed.

    The SP2 and the CAVE display engine have ATM interfaces (AAL-5
    applicable between them); the instrument site is reachable only by
    routed IP (TCP/UDP) through the CAVE's site link.  The wires are the
    ``atm-oc3``, ``wan-ip`` and ``site-ip`` profiles of ``costs``.
    """
    sim = Simulator()
    network = Network(sim)
    links = costs.links

    sp2 = network.new_machine("sp2", {"tcp": links["sp2-switch-tcp"]})
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

    # The provisioned ATM circuit carries AAL-5 only; routed IP traffic
    # (TCP/UDP/multicast) takes the slower internet path — so an ATM
    # fault leaves IP connectivity intact (the failover scenario).
    network.connect(sp2, cave, links["atm-oc3"], transports=("aal5",))
    network.connect(sp2, cave, links["wan-ip"],
                    transports=("tcp", "udp", "mcast"))
    network.connect(cave, instrument, links["site-ip"],
                    transports=("tcp", "udp", "mcast"))

    nexus = Nexus(sim, network, costs=costs, transports=(
        "local", "mpl", "aal5", "tcp", "udp", "mcast"))
    return IWayTestbed(sim=sim, nexus=nexus, sp2=sp2, cave=cave,
                       instrument=instrument, sp2_hosts=sp2_hosts,
                       cave_host=cave_host, instrument_host=instrument_host)
