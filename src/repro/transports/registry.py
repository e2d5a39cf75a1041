"""Transport registry: the paper's module-loading machinery.

The paper describes several ways communication modules become available
to an executable: a default set compiled into the library, additions via
a resource database, command-line arguments, or program calls.  This
registry keeps the two that runs use:

* a built-in default set (:data:`BUILTIN_TRANSPORTS`, of which
  :data:`DEFAULT_TRANSPORT_SET` is enabled unless the runtime names its
  own tuple);
* program calls: :meth:`TransportRegistry.enable` instantiates a
  built-in module by name, and :meth:`TransportRegistry.register` adds
  a pre-built instance (the protocol stacks of
  :mod:`repro.transports.layers`).
"""

from __future__ import annotations

import typing as _t

from .aal5 import Aal5Transport
from .base import Transport, TransportServices
from .costmodels import TransportCosts
from .errors import RegistryError
from .local import LocalTransport
from .mpl import MplTransport
from .multicast import MulticastTransport
from .myrinet import MyrinetTransport
from .shm import ShmTransport
from .tcp import TcpTransport
from .udp import UdpTransport

#: All transports compiled into this build, keyed by name.
BUILTIN_TRANSPORTS: dict[str, type[Transport]] = {
    cls.name: cls
    for cls in (
        LocalTransport,
        ShmTransport,
        MplTransport,
        MyrinetTransport,
        Aal5Transport,
        TcpTransport,
        UdpTransport,
        MulticastTransport,
    )
}

#: The default module set built into the library (paper: "when the Nexus
#: library is built, a default set of modules is defined").
DEFAULT_TRANSPORT_SET = ("local", "shm", "mpl", "tcp")


class TransportRegistry:
    """The set of live communication modules of one runtime instance."""

    def __init__(self, services: TransportServices,
                 costs: _t.Mapping[str, TransportCosts]):
        self.services = services
        self._costs = costs
        self._transports: dict[str, Transport] = {}

    # -- configuration ------------------------------------------------------

    def enable(self, name: str) -> Transport:
        """Instantiate and register a built-in module (idempotent)."""
        if name in self._transports:
            return self._transports[name]
        cls = BUILTIN_TRANSPORTS.get(name)
        if cls is None:
            raise RegistryError(f"unknown transport {name!r}")
        costs = self._costs.get(name)
        if costs is None:
            raise RegistryError(f"no cost model for transport {name!r}")
        transport = cls(self.services, costs)
        self._transports[name] = transport
        return transport

    def enable_all(self, names: _t.Iterable[str]) -> list[Transport]:
        return [self.enable(name) for name in names]

    def register(self, transport: Transport) -> Transport:
        """Register a pre-built transport instance (protocol stacks,
        custom experimental modules).  The instance's ``name`` becomes
        its method name; re-registering a name is an error."""
        if transport.name in self._transports:
            raise RegistryError(
                f"transport {transport.name!r} is already registered")
        self._transports[transport.name] = transport
        return transport

    # -- lookup ------------------------------------------------------------------

    def get(self, name: str) -> Transport:
        transport = self._transports.get(name)
        if transport is None:
            raise RegistryError(f"transport {name!r} is not enabled")
        return transport

    def __contains__(self, name: str) -> bool:
        return name in self._transports

    def __len__(self) -> int:
        return len(self._transports)

    def names(self) -> list[str]:
        """Enabled transport names, fastest first (by ``speed_rank``)."""
        return sorted(self._transports,
                      key=lambda n: self._transports[n].speed_rank)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<TransportRegistry {self.names()}>"
