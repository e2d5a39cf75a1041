"""Machines, partitions, and the wide-area network graph.

The paper's experiments run on one IBM SP2 split into two software
*partitions*: MPL works only within a partition, TCP works anywhere with IP
connectivity.  The I-WAY applications additionally spanned multiple
machines joined by wide-area ATM links.  This module models all of that:

* :class:`Machine` — a parallel computer: a set of :class:`Host` nodes
  joined by an internal switch, with named switch profiles (one
  :class:`LinkProfile` per transport that runs over the switch).
* :class:`Partition` — a named subset of a machine's hosts with a session
  identifier; the MPL transport requires both peers to share a partition
  *and* session, exactly as communication descriptors do in the paper.
* :class:`Network` — the world: machines plus wide-area links between them,
  with shortest-path (by latency) route computation for multi-hop WANs.
"""

from __future__ import annotations

import dataclasses
import itertools
import typing as _t

from .errors import SimnetError
from .link import LinkProfile
from .node import Host
from .random import derived_generator

if _t.TYPE_CHECKING:  # pragma: no cover
    from .engine import Simulator

_session_ids = itertools.count(1000)

#: A fault scope: a single host, every host of a partition, or every
#: host of a machine.
FaultScope = _t.Union["Machine", "Partition", Host]


def _scope_contains(scope: FaultScope, host: Host) -> bool:
    if isinstance(scope, Host):
        return scope is host
    if isinstance(scope, Partition):
        return host.partition is scope
    return host.machine is scope


def _scope_name(scope: FaultScope) -> str:
    return getattr(scope, "name", repr(scope))


@dataclasses.dataclass(frozen=True)
class FaultRule:
    """One installed hard fault: traffic between two scopes is severed.

    ``transport=None`` severs every method between the scopes; a name
    severs only that wire method (e.g. fail TCP while UDP survives).
    Faults are bidirectional, like the links they sever.
    """

    a: FaultScope
    b: FaultScope
    transport: str | None = None

    def covers(self, src: Host, dst: Host, transport: str | None) -> bool:
        if self.transport is not None and transport != self.transport:
            return False
        return ((_scope_contains(self.a, src) and _scope_contains(self.b, dst))
                or (_scope_contains(self.a, dst)
                    and _scope_contains(self.b, src)))

    def covers_link(self, link: "WanLink", transport: str | None) -> bool:
        """Does this rule sever a WAN link outright?  Only machine-scoped
        rules do — a host- or partition-scoped fault must not cut the
        link for unrelated hosts of the same machines."""
        if self.transport is not None and transport != self.transport:
            return False
        return ({self.a, self.b} == {link.a, link.b}
                if isinstance(self.a, Machine) and isinstance(self.b, Machine)
                else False)

    def matches(self, a: FaultScope, b: FaultScope,
                transport: str | None) -> bool:
        """Is this the rule ``fail(a, b, transport=...)`` installed?
        (``transport=None`` in :meth:`Network.restore` matches any.)"""
        if transport is not None and self.transport != transport:
            return False
        return {self.a, self.b} == {a, b}


class FlakyRule:
    """A seeded per-message drop rule between two scopes (one direction
    pair, one optional transport).  Each rule owns its own deterministic
    RNG, seeded via :func:`repro.simnet.random.derive` from the rule's
    own identity (scope names + transport), so installations elsewhere —
    or two rules sharing one ``seed`` — never perturb each other's drop
    sequence."""

    def __init__(self, a: FaultScope, b: FaultScope, transport: str | None,
                 drop_probability: float, seed: int):
        if not (0.0 <= drop_probability <= 1.0):
            raise SimnetError(
                f"bad flaky drop probability {drop_probability!r}")
        self.a = a
        self.b = b
        self.transport = transport
        self.drop_probability = drop_probability
        self.rng = derived_generator(seed, "flaky", _scope_name(a),
                                     _scope_name(b), transport or "*")

    def covers(self, src: Host, dst: Host, transport: str | None) -> bool:
        if self.transport is not None and transport != self.transport:
            return False
        return ((_scope_contains(self.a, src) and _scope_contains(self.b, dst))
                or (_scope_contains(self.a, dst)
                    and _scope_contains(self.b, src)))


class Partition:
    """A software partition of a machine (SP2-style).

    Each partition carries a globally unique ``session`` identifier — the
    paper notes MPL communication descriptors include a session id used to
    distinguish SP partitions.
    """

    def __init__(self, machine: "Machine", name: str):
        self.machine = machine
        self.name = name
        self.session: int = next(_session_ids)
        self.hosts: list[Host] = []

    def add(self, host: Host) -> None:
        if host.machine is not self.machine:
            raise SimnetError(
                f"host {host.name!r} belongs to a different machine"
            )
        if host.partition is not None:
            raise SimnetError(f"host {host.name!r} is already in a partition")
        host.partition = self
        self.hosts.append(host)

    def __contains__(self, host: Host) -> bool:
        return host.partition is self

    def __len__(self) -> int:
        return len(self.hosts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Partition {self.name!r} session={self.session} "
                f"hosts={len(self.hosts)}>")


class Machine:
    """A parallel computer: hosts + internal switch profiles."""

    def __init__(self, sim: "Simulator", name: str,
                 switch_profiles: _t.Mapping[str, LinkProfile] | None = None):
        self.sim = sim
        self.name = name
        self.hosts: list[Host] = []
        self.partitions: list[Partition] = []
        #: transport name -> profile for traffic over this machine's switch.
        self.switch_profiles: dict[str, LinkProfile] = dict(switch_profiles or {})

    def new_host(self, name: str | None = None) -> Host:
        host = Host(name or f"{self.name}/n{len(self.hosts)}", machine=self)
        self.hosts.append(host)
        return host

    def new_hosts(self, count: int, prefix: str | None = None) -> list[Host]:
        return [self.new_host(f"{prefix or self.name}/n{len(self.hosts)}")
                for _ in range(count)]

    def new_partition(self, name: str, hosts: _t.Iterable[Host]) -> Partition:
        partition = Partition(self, name)
        for host in hosts:
            partition.add(host)
        self.partitions.append(partition)
        return partition

    def switch_profile(self, transport: str) -> LinkProfile | None:
        return self.switch_profiles.get(transport)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Machine {self.name!r} hosts={len(self.hosts)} "
                f"partitions={len(self.partitions)}>")


class WanLink:
    """A (bidirectional) wide-area link between two machines.

    ``transports`` optionally restricts which communication methods may
    route over this link (e.g. a provisioned ATM PVC carries only AAL-5
    while a routed internet path carries TCP/UDP); ``None`` admits any.
    """

    def __init__(self, a: Machine, b: Machine, profile: LinkProfile,
                 transports: _t.Collection[str] | None = None):
        self.a = a
        self.b = b
        self.profile = profile
        #: The healthy profile; :meth:`Network.degrade` always scales from
        #: this, so degradations are absolute (idempotent) and factors of
        #: 1.0 restore the original object exactly.
        self.base_profile = profile
        self.transports = frozenset(transports) if transports is not None else None
        #: Bandwidth currently committed to QoS reservations (bytes/s).
        self.reserved_bandwidth = 0.0

    def carries(self, transport: str | None) -> bool:
        return (transport is None or self.transports is None
                or transport in self.transports)

    @property
    def available_bandwidth(self) -> float:
        """Bandwidth not committed to reservations."""
        return max(self.profile.bandwidth - self.reserved_bandwidth, 0.0)

    def other(self, machine: Machine) -> Machine:
        if machine is self.a:
            return self.b
        if machine is self.b:
            return self.a
        raise SimnetError(f"{machine!r} is not an endpoint of this link")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<WanLink {self.a.name}<->{self.b.name} {self.profile.name}>"


class Reservation:
    """A QoS bandwidth reservation along a WAN route (Section 2's
    "channel-based QoS reservation", RSVP-style).

    Holds ``bandwidth`` bytes/s on every link of the reserved route
    until :meth:`release`.  Transports honour reservations through the
    ``reserved_bandwidth`` descriptor parameter (see
    :meth:`repro.transports.ipbase.IpTransport.send`).
    """

    _ids = itertools.count(1)

    def __init__(self, network: "Network", links: list[WanLink],
                 bandwidth: float):
        self.id: int = next(Reservation._ids)
        self.network = network
        self.links = links
        self.bandwidth = bandwidth
        self.active = True

    def release(self) -> None:
        """Return the reserved bandwidth to the links (idempotent)."""
        if not self.active:
            return
        for link in self.links:
            link.reserved_bandwidth -= self.bandwidth
        self.active = False
        self.network.epoch += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "active" if self.active else "released"
        return (f"<Reservation {self.id} {state} "
                f"bw={self.bandwidth:.0f} B/s links={len(self.links)}>")


class Network:
    """The simulated world: machines joined by wide-area links."""

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.machines: list[Machine] = []
        self._links: list[WanLink] = []
        self._adjacency: dict[Machine, list[WanLink]] = {}
        #: Bumped whenever link characteristics change; transports use it
        #: to invalidate cached effective profiles (outage modelling).
        self.epoch = 0
        #: Installed hard faults (see :meth:`fail`); empty on the happy
        #: path so transports can skip fault checks with one truth test.
        self._fault_rules: list[FaultRule] = []
        #: Installed seeded flaky-drop rules (see :meth:`set_flaky`).
        self._flaky_rules: list[FlakyRule] = []

    # -- construction ------------------------------------------------------

    def new_machine(self, name: str,
                    switch_profiles: _t.Mapping[str, LinkProfile] | None = None
                    ) -> Machine:
        machine = Machine(self.sim, name, switch_profiles)
        self.machines.append(machine)
        self._adjacency[machine] = []
        return machine

    def connect(self, a: Machine, b: Machine, profile: LinkProfile,
                transports: _t.Collection[str] | None = None) -> WanLink:
        """Join two machines with a wide-area link (optionally restricted
        to specific transports)."""
        if a is b:
            raise SimnetError("cannot connect a machine to itself")
        for machine in (a, b):
            if machine not in self._adjacency:
                raise SimnetError(f"{machine!r} is not part of this network")
        link = WanLink(a, b, profile, transports)
        self._links.append(link)
        self._adjacency[a].append(link)
        self._adjacency[b].append(link)
        return link

    @property
    def hosts(self) -> list[Host]:
        return [h for m in self.machines for h in m.hosts]

    def degrade(self, a: Machine, b: Machine, *,
                latency_factor: float = 1.0,
                bandwidth_factor: float = 1.0,
                transport: str | None = None) -> None:
        """Degrade (or restore) direct links between two machines.

        With ``transport`` given, only links carrying that method are
        touched (e.g. fail the ATM circuit while the routed-IP path stays
        healthy).  Transports re-resolve their cached path profiles
        because :attr:`epoch` changes.
        """
        changed = False
        for link in self._links:
            if {link.a, link.b} == {a, b} and link.carries(transport):
                # Scale from the pristine base profile, never the current
                # one: repeated calls are idempotent and factors of 1.0
                # restore the healthy profile exactly.
                if latency_factor == 1.0 and bandwidth_factor == 1.0:
                    link.profile = link.base_profile
                else:
                    link.profile = link.base_profile.scaled(
                        latency_factor=latency_factor,
                        bandwidth_factor=bandwidth_factor,
                        name=link.base_profile.name,
                    )
                changed = True
        if not changed:
            raise SimnetError(
                f"no link between {a.name!r} and {b.name!r} to degrade"
            )
        self.epoch += 1

    # -- fault injection ---------------------------------------------------

    def fail(self, a: FaultScope, b: FaultScope, *,
             transport: str | None = None) -> None:
        """Sever communication between two scopes (hosts, partitions, or
        machines), either for one wire method or for all of them.

        Fail-stop at admission: messages already serialised onto the wire
        still arrive, but every later send attempt raises
        :class:`~repro.transports.base.DeliveryError` (routed transports)
        or is refused outright (switch transports).  Idempotent.
        """
        if any({existing.a, existing.b} == {a, b}
               and existing.transport == transport
               for existing in self._fault_rules):
            return
        self._fault_rules.append(FaultRule(a, b, transport))
        self.epoch += 1

    def restore(self, a: FaultScope, b: FaultScope, *,
                transport: str | None = None) -> None:
        """Undo :meth:`fail` between two scopes.  ``transport=None``
        lifts every fault between them; a name lifts just that method's.
        Idempotent — restoring a healthy pair is a no-op."""
        kept = [rule for rule in self._fault_rules
                if not rule.matches(a, b, transport)]
        if len(kept) != len(self._fault_rules):
            self._fault_rules = kept
            self.epoch += 1

    def is_faulted(self, src: Host, dst: Host,
                   transport: str | None = None) -> bool:
        """Is traffic from ``src`` to ``dst`` over ``transport`` severed
        by an installed hard fault?  (``transport=None``: by any-method
        faults only.)"""
        return any(rule.covers(src, dst, transport)
                   for rule in self._fault_rules)

    def set_flaky(self, a: FaultScope, b: FaultScope, *,
                  drop_probability: float, seed: int = 0,
                  transport: str | None = None) -> FlakyRule:
        """Install (or replace) a seeded per-message drop rule between
        two scopes.  Each send covered by the rule rolls the rule's own
        deterministic RNG; rolls below ``drop_probability`` fail that
        delivery.  Returns the installed rule."""
        self._flaky_rules = [
            rule for rule in self._flaky_rules
            if not ({rule.a, rule.b} == {a, b}
                    and rule.transport == transport)]
        rule = FlakyRule(a, b, transport, drop_probability, seed)
        self._flaky_rules.append(rule)
        return rule

    def clear_flaky(self, a: FaultScope, b: FaultScope, *,
                    transport: str | None = None) -> None:
        """Remove any flaky-drop rule between two scopes (idempotent)."""
        self._flaky_rules = [
            rule for rule in self._flaky_rules
            if not ({rule.a, rule.b} == {a, b}
                    and (transport is None or rule.transport == transport))]

    def fault_drop(self, src: Host, dst: Host,
                   transport: str | None = None) -> bool:
        """Roll every flaky rule covering this send; True means the
        message is lost.  Deterministic: each rule's RNG advances once
        per covered send, in installation order."""
        dropped = False
        for rule in self._flaky_rules:
            if rule.covers(src, dst, transport):
                if rule.rng.random() < rule.drop_probability:
                    dropped = True
        return dropped

    # -- routing -------------------------------------------------------------

    def wan_route(self, src: Machine, dst: Machine,
                  transport: str | None = None) -> list[WanLink] | None:
        """Lowest-total-latency route between machines (Dijkstra) over
        links that carry ``transport``, or None.  ``[]`` when src is dst.
        """
        if src is dst:
            return []
        import heapq

        dist: dict[Machine, float] = {src: 0.0}
        prev: dict[Machine, tuple[Machine, WanLink]] = {}
        heap: list[tuple[float, int, Machine]] = [(0.0, id(src), src)]
        visited: set[int] = set()
        while heap:
            d, _tie, machine = heapq.heappop(heap)
            if id(machine) in visited:
                continue
            visited.add(id(machine))
            if machine is dst:
                route: list[WanLink] = []
                cursor = dst
                while cursor is not src:
                    parent, link = prev[cursor]
                    route.append(link)
                    cursor = parent
                route.reverse()
                return route
            for link in self._adjacency[machine]:
                if not link.carries(transport):
                    continue
                if self._fault_rules and any(
                        rule.covers_link(link, transport)
                        for rule in self._fault_rules):
                    continue
                neighbour = link.other(machine)
                nd = d + link.profile.latency
                if nd < dist.get(neighbour, float("inf")):
                    dist[neighbour] = nd
                    prev[neighbour] = (machine, link)
                    heapq.heappush(heap, (nd, id(neighbour), neighbour))
        return None

    def wan_path_profile(self, src: Machine, dst: Machine,
                         transport: str | None = None) -> LinkProfile | None:
        """Collapse a multi-hop WAN route to one effective profile.

        Latencies add; bandwidth is the bottleneck link's.  Returns ``None``
        when the machines are not connected (for ``transport``).
        """
        route = self.wan_route(src, dst, transport)
        if route is None:
            return None
        if not route:
            raise SimnetError("wan_path_profile() called for a single machine")
        return LinkProfile(
            name="+".join(link.profile.name for link in route),
            latency=sum(link.profile.latency for link in route),
            bandwidth=min(link.profile.bandwidth for link in route),
            send_overhead=route[0].profile.send_overhead,
            recv_overhead=route[-1].profile.recv_overhead,
        )

    # -- QoS reservations -----------------------------------------------------

    def reserve(self, a: Machine, b: Machine, bandwidth: float,
                transport: str | None = None) -> Reservation:
        """Reserve ``bandwidth`` along the best route between two machines.

        Raises :class:`SimnetError` if any link on the route lacks that
        much uncommitted bandwidth (admission control).
        """
        if bandwidth <= 0:
            raise SimnetError(f"reservation bandwidth must be positive, "
                              f"got {bandwidth!r}")
        route = self.wan_route(a, b, transport)
        if not route:
            raise SimnetError(
                f"no reservable route between {a.name!r} and {b.name!r}")
        for link in route:
            if link.available_bandwidth < bandwidth:
                raise SimnetError(
                    f"admission control: link {link.profile.name!r} has "
                    f"only {link.available_bandwidth:.0f} B/s available, "
                    f"{bandwidth:.0f} requested")
        for link in route:
            link.reserved_bandwidth += bandwidth
        self.epoch += 1
        return Reservation(self, route, bandwidth)

    def available_bandwidth(self, a: Host, b: Host,
                            transport: str | None = None) -> float | None:
        """Uncommitted bandwidth between two hosts (None if unreachable).

        This is what a QoS-aware selection policy consults: "looking at
        available network bandwidth rather than raw bandwidth" (§3.2).
        """
        if self._fault_rules and self.is_faulted(a, b, transport):
            return None
        if a.machine is b.machine:
            assert a.machine is not None
            if transport is not None:
                profile = a.machine.switch_profile(transport)
                return profile.bandwidth if profile else None
            return float("inf")
        assert a.machine is not None and b.machine is not None
        route = self.wan_route(a.machine, b.machine, transport)
        if route is None:
            return None
        return min(link.available_bandwidth for link in route)

    # -- reachability predicates ---------------------------------------------

    def ip_connected(self, a: Host, b: Host,
                     transport: str | None = None) -> bool:
        """True if a routed transport can reach ``b`` from ``a``."""
        if self._fault_rules and self.is_faulted(a, b, transport):
            return False
        if a.machine is b.machine:
            return True
        assert a.machine is not None and b.machine is not None
        return self.wan_route(a.machine, b.machine, transport) is not None

    def effective_profile(self, transport: str, a: Host, b: Host
                          ) -> LinkProfile | None:
        """Profile a routed transport should use between two hosts.

        Same machine → that machine's switch profile for ``transport``;
        different machines → the collapsed WAN path profile over links
        carrying ``transport`` (if connected).  ``None`` while a hard
        fault severs the pair.
        """
        if self._fault_rules and self.is_faulted(a, b, transport):
            return None
        if a.machine is b.machine:
            assert a.machine is not None
            return a.machine.switch_profile(transport)
        assert a.machine is not None and b.machine is not None
        return self.wan_path_profile(a.machine, b.machine, transport)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Network machines={len(self.machines)} "
                f"links={len(self._links)}>")
