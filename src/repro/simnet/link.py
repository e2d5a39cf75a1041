"""Link cost models and point-to-point pipes.

A :class:`LinkProfile` is the parameterisation every transport cost model
is built from: fixed latency, bandwidth, per-message fixed overheads and an
optional drop probability (used by the unreliable UDP module).  The
canonical profiles calibrated to the paper's reported SP2 constants live in
:mod:`repro.transports.costmodels`.

A :class:`Pipe` is a serialised point-to-point channel: messages occupy the
pipe for their serialisation time (``bytes / bandwidth``) and arrive one
latency later, so back-to-back messages queue behind each other but latency
is pipelined — the standard store-and-forward link model.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from .errors import SimnetError
from .resources import Resource

if _t.TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from .engine import Simulator


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
    latency: float
    bandwidth: float
    send_overhead: float = 0.0
    recv_overhead: float = 0.0
    drop_probability: float = 0.0

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

    def one_way_time(self, nbytes: int) -> float:
        """Uncontended one-way transfer time (excludes CPU overheads)."""
        return self.latency + self.serialization_time(nbytes)

    def scaled(self, *, latency_factor: float = 1.0,
               bandwidth_factor: float = 1.0,
               name: str | None = None) -> "LinkProfile":
        """A derived profile with scaled latency/bandwidth (for sweeps)."""
        return dataclasses.replace(
            self,
            name=name or f"{self.name}*",
            latency=self.latency * latency_factor,
            bandwidth=self.bandwidth * bandwidth_factor,
        )


@dataclasses.dataclass
class Delivery:
    """What a :class:`Pipe` hands to the destination: payload + metadata."""

    payload: object
    nbytes: int
    sent_at: float
    arrived_at: float
    profile_name: str


class Pipe:
    """A serialised point-to-point channel between two attachment points.

    The pipe does not know about hosts or transports — it only moves
    opaque payloads with the costs of its :class:`LinkProfile` and calls
    ``deliver`` (typically ``Store.put``) on arrival.
    """

    def __init__(self, sim: "Simulator", profile: LinkProfile,
                 deliver: _t.Callable[[Delivery], object],
                 rng: np.random.Generator | None = None,
                 name: str | None = None):
        self.sim = sim
        self.profile = profile
        self.deliver = deliver
        self.rng = rng
        self.name = name or profile.name
        self._channel = Resource(sim, capacity=1, name=f"pipe:{self.name}")
        self.messages_sent = 0
        self.messages_dropped = 0
        self.bytes_sent = 0

    def send(self, payload: object, nbytes: int):
        """Generator: occupy the channel, then schedule delivery.

        The caller (a simulated process) resumes once the message has been
        *serialised onto* the channel; delivery happens one latency later
        without blocking the sender — i.e. sends are asynchronous once the
        channel is free, matching how every transport in the paper behaves.
        """
        profile = self.profile
        yield self._channel.request()
        try:
            sent_at = self.sim.now
            yield self.sim.timeout(profile.serialization_time(nbytes))
        finally:
            self._channel.release()

        self.messages_sent += 1
        self.bytes_sent += nbytes

        if profile.drop_probability > 0.0:
            if self.rng is None:
                raise SimnetError(
                    f"pipe {self.name!r} has drop probability but no rng"
                )
            if self.rng.random() < profile.drop_probability:
                self.messages_dropped += 1
                return None

        delivery = Delivery(
            payload=payload,
            nbytes=nbytes,
            sent_at=sent_at,
            arrived_at=self.sim.now + profile.latency,
            profile_name=profile.name,
        )
        self.sim.process(self._deliver_later(delivery),
                         name=f"deliver:{self.name}")
        return delivery

    def _deliver_later(self, delivery: Delivery):
        yield self.sim.timeout(self.profile.latency)
        self.deliver(delivery)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Pipe {self.name!r} sent={self.messages_sent} "
                f"dropped={self.messages_dropped}>")
