"""Link cost models.

A :class:`LinkProfile` is the parameterisation every transport cost model
is built from: fixed latency, bandwidth, per-message fixed overheads and an
optional drop probability (used by the unreliable UDP module).  The
named profiles calibrated to the paper's constants live in the cost
structure of :mod:`repro.transports.costmodels`.
"""

from __future__ import annotations

import dataclasses

from ..util.units import unit
from .errors import SimnetError


@dataclasses.dataclass(frozen=True)
class LinkProfile:
    """Cost parameters of a communication channel.

    Attributes
    ----------
    name:
        Identifier, e.g. ``"sp2-switch-mpl"``.
    latency:
        One-way propagation + protocol latency in seconds.
    bandwidth:
        Sustained bandwidth in bytes/second.
    send_overhead:
        Fixed CPU time charged to the *sender* per message, seconds.
    recv_overhead:
        Fixed CPU time charged to the *receiver* per message, seconds.
    drop_probability:
        Probability a message is silently lost (unreliable channels only).
    """

    name: str
    latency: float = unit("s")
    bandwidth: float = unit("B/s")
    send_overhead: float = unit("s", 0.0)
    recv_overhead: float = unit("s", 0.0)
    drop_probability: float = unit("1", 0.0)

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise SimnetError(f"negative latency in profile {self.name!r}")
        if self.bandwidth <= 0:
            raise SimnetError(f"non-positive bandwidth in profile {self.name!r}")
        if not (0.0 <= self.drop_probability <= 1.0):
            raise SimnetError(f"bad drop probability in profile {self.name!r}")

    def serialization_time(self, nbytes: int) -> float:
        """Time the message occupies the channel: ``nbytes / bandwidth``."""
        if nbytes < 0:
            raise SimnetError(f"negative message size {nbytes!r}")
        return nbytes / self.bandwidth
