"""repro.transports — the communication modules of the reproduction.

Each module implements one low-level communication method behind the
common :class:`Transport` interface (the paper's function-table-accessed
communication module).  Built-ins: ``local``, ``shm``, ``mpl``,
``myrinet``, ``aal5``, ``tcp``, ``udp``, ``mcast``.  Cost models
calibrated to the paper's SP2 constants live in
:mod:`repro.transports.costmodels`.
"""

from .aal5 import Aal5Transport
from .base import (
    ContextLike,
    Descriptor,
    InTransitMessage,
    Transport,
    TransportServices,
    WireMessage,
)
from .costmodels import (
    DEFAULT_COSTS,
    CostStructure,
    RuntimeCosts,
    TransportCosts,
)
from .errors import (
    DeliveryError,
    RegistryError,
    TransportError,
)
from .fastbase import FastTransport
from .ipbase import IpTransport
from .layers import (
    ChecksumLayer,
    CompressionLayer,
    FragmentationLayer,
    LayeredTransport,
    ProtocolLayer,
    make_layered,
)
from .local import LocalTransport
from .mpl import MplTransport
from .multicast import MulticastTransport
from .myrinet import MyrinetTransport
from .registry import (
    BUILTIN_TRANSPORTS,
    DEFAULT_TRANSPORT_SET,
    TransportRegistry,
)
from .shm import ShmTransport
from .tcp import TcpTransport
from .udp import UdpTransport

__all__ = [
    "Aal5Transport",
    "BUILTIN_TRANSPORTS",
    "ChecksumLayer",
    "CompressionLayer",
    "ContextLike",
    "CostStructure",
    "DEFAULT_COSTS",
    "DEFAULT_TRANSPORT_SET",
    "DeliveryError",
    "Descriptor",
    "FastTransport",
    "FragmentationLayer",
    "InTransitMessage",
    "IpTransport",
    "LayeredTransport",
    "LocalTransport",
    "MplTransport",
    "MulticastTransport",
    "MyrinetTransport",
    "ProtocolLayer",
    "RegistryError",
    "RuntimeCosts",
    "ShmTransport",
    "TcpTransport",
    "Transport",
    "TransportCosts",
    "TransportError",
    "TransportRegistry",
    "TransportServices",
    "UdpTransport",
    "WireMessage",
    "make_layered",
]
