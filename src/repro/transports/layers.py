"""Protocol composition: building new methods by stacking layers.

The paper's related work points at the x-kernel and Horus, which
"complement our work by defining a framework that supports the
construction of new protocols by the composition of simpler protocol
elements.  These mechanisms could be used within Nexus to simplify the
development of new communication modules."  And Section 2.1's manual
selection example is exactly such a composite: "manual selection could
be used to specify that data is to be compressed before communication."

This module is that framework:

* a :class:`ProtocolLayer` transforms messages on the way down (send)
  and up (deliver) — possibly one-to-many (fragmentation) or
  many-to-one (reassembly) — and contributes CPU costs;
* :func:`make_layered` stacks layers on top of any built-in transport
  and registers the stack as a *new communication method* with its own
  name (e.g. ``"lzw+tcp"``), selectable through all the usual machinery;
* three concrete layers: :class:`CompressionLayer`,
  :class:`ChecksumLayer`, and :class:`FragmentationLayer` (with real
  reassembly state).

As Horus observed (and the paper echoes), composition costs something:
each layer adds header bytes, CPU, and — for fragmentation — extra
messages.  Those costs are first-class here, so the compose-vs-monolith
trade-off is measurable.
"""

from __future__ import annotations

import abc
import copy as _copy
import dataclasses
import itertools
import typing as _t

from ..util.units import microseconds
from .base import (
    ContextLike,
    Descriptor,
    ReceiveLane,
    Transport,
    WireMessage,
)
from .errors import TransportError

if _t.TYPE_CHECKING:  # pragma: no cover
    from .registry import TransportRegistry

#: Header key carrying receive-side CPU the dispatch path must charge.
EXTRA_RECV_CPU = "extra_recv_cpu"


class ProtocolLayer(abc.ABC):
    """One element of a protocol stack."""

    #: Short name used in the composed method's identifier.
    name: _t.ClassVar[str]

    @abc.abstractmethod
    def transform_send(self, message: WireMessage
                       ) -> tuple[list[WireMessage], float]:
        """Transform an outgoing message.

        Returns ``(messages, sender_cpu_seconds)`` — one-to-many splits
        are allowed (fragmentation).
        """

    @abc.abstractmethod
    def transform_deliver(self, message: WireMessage,
                          context: ContextLike) -> list[WireMessage]:
        """Transform an arriving message (inverse direction).

        May buffer (return ``[]``) until peers arrive — reassembly.
        Receive-side CPU is added to the message's ``extra_recv_cpu``
        header, which the dispatch path charges.
        """

    @staticmethod
    def add_recv_cpu(message: WireMessage, seconds: float) -> None:
        message.headers[EXTRA_RECV_CPU] = (
            message.headers.get(EXTRA_RECV_CPU, 0.0) + seconds)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class CompressionLayer(ProtocolLayer):
    """LZW-style compression: fewer wire bytes for CPU on both ends.

    ``ratio`` is the compressed/original size ratio for the payload
    (headers are incompressible).  Worth it on slow wires (WAN TCP at a
    few MB/s), a loss on fast ones — which is why the paper makes it a
    *manual* choice.
    """

    name = "lzw"
    HEADER_BYTES = 8

    def __init__(self, ratio: float = 0.45,
                 compress_per_byte: float = microseconds(0.04),
                 decompress_per_byte: float = microseconds(0.02)):
        if not (0.0 < ratio <= 1.0):
            raise TransportError(f"bad compression ratio {ratio!r}")
        self.ratio = ratio
        self.compress_per_byte = compress_per_byte
        self.decompress_per_byte = decompress_per_byte
        self.bytes_saved = 0

    def transform_send(self, message: WireMessage
                       ) -> tuple[list[WireMessage], float]:
        original = message.nbytes
        compressed = self.HEADER_BYTES + int(original * self.ratio)
        if compressed >= original:      # incompressible: store raw
            message.headers["lzw_raw"] = True
            return [message], self.compress_per_byte * original
        message.headers["lzw_orig_nbytes"] = original
        self.bytes_saved += original - compressed
        message.nbytes = compressed
        return [message], self.compress_per_byte * original

    def transform_deliver(self, message: WireMessage,
                          context: ContextLike) -> list[WireMessage]:
        if message.headers.pop("lzw_raw", False):
            return [message]
        original = _t.cast(int, message.headers.pop("lzw_orig_nbytes"))
        message.nbytes = original
        self.add_recv_cpu(message, self.decompress_per_byte * original)
        return [message]


class ChecksumLayer(ProtocolLayer):
    """End-to-end integrity: a trailer plus per-byte CPU on both sides."""

    name = "cksum"
    TRAILER_BYTES = 8

    def __init__(self, per_byte: float = microseconds(0.008)):
        self.per_byte = per_byte
        self.verified = 0

    def transform_send(self, message: WireMessage
                       ) -> tuple[list[WireMessage], float]:
        message.nbytes += self.TRAILER_BYTES
        message.headers["cksum"] = True
        return [message], self.per_byte * message.nbytes

    def transform_deliver(self, message: WireMessage,
                          context: ContextLike) -> list[WireMessage]:
        if not message.headers.pop("cksum", False):
            raise TransportError("checksum trailer missing")
        message.nbytes -= self.TRAILER_BYTES
        self.add_recv_cpu(message, self.per_byte * message.nbytes)
        self.verified += 1
        return [message]


class FragmentationLayer(ProtocolLayer):
    """Split messages larger than an MTU; reassemble at the far end.

    Fragments carry real sequencing state; delivery of the logical
    message happens only when every fragment has arrived (out-of-order
    arrival tolerated), which the tests exercise directly.
    """

    name = "frag"
    FRAGMENT_HEADER = 12

    _ids = itertools.count(1)

    def __init__(self, mtu: int = 8192,
                 per_fragment_cpu: float = microseconds(4.0)):
        if mtu <= self.FRAGMENT_HEADER:
            raise TransportError(f"mtu {mtu!r} too small")
        self.mtu = mtu
        self.per_fragment_cpu = per_fragment_cpu
        self.fragments_sent = 0
        #: (src context, message id) -> {index: fragment}
        self._partial: dict[tuple[int, int], dict[int, WireMessage]] = {}

    def transform_send(self, message: WireMessage
                       ) -> tuple[list[WireMessage], float]:
        if message.nbytes <= self.mtu:
            return [message], 0.0
        payload_per = self.mtu - self.FRAGMENT_HEADER
        count = -(-message.nbytes // payload_per)  # ceil
        frag_id = next(self._ids)
        fragments: list[WireMessage] = []
        remaining = message.nbytes
        for index in range(count):
            chunk = min(payload_per, remaining)
            remaining -= chunk
            fragment = _copy.copy(message)
            fragment.headers = dict(message.headers)
            fragment.headers.update(frag_id=frag_id, frag_index=index,
                                    frag_count=count,
                                    frag_total=message.nbytes)
            # Only the last fragment carries the payload object (the
            # wire accounting is per fragment; the Python object must
            # arrive exactly once).
            if index != count - 1:
                fragment.payload = None
            fragment.nbytes = chunk + self.FRAGMENT_HEADER
            fragments.append(fragment)
        self.fragments_sent += count
        return fragments, self.per_fragment_cpu * count

    def transform_deliver(self, message: WireMessage,
                          context: ContextLike) -> list[WireMessage]:
        frag_id = message.headers.get("frag_id")
        if frag_id is None:
            return [message]
        key = (message.src_context, _t.cast(int, frag_id))
        bucket = self._partial.setdefault(key, {})
        bucket[_t.cast(int, message.headers["frag_index"])] = message
        count = _t.cast(int, message.headers["frag_count"])
        if len(bucket) < count:
            return []
        del self._partial[key]
        last = bucket[count - 1]
        whole = _copy.copy(last)
        whole.headers = {k: v for k, v in last.headers.items()
                         if not k.startswith("frag_")}
        whole.nbytes = _t.cast(int, last.headers["frag_total"])
        self.add_recv_cpu(whole, self.per_fragment_cpu * count)
        return [whole]


class LayeredTransport(Transport):
    """A protocol stack registered as a communication method of its own."""

    name = "layered"      # replaced per instance
    speed_rank = 50       # composites are never auto-preferred

    def __init__(self, carrier: Transport, layers: _t.Sequence[ProtocolLayer],
                 name: str):
        super().__init__(carrier.services, carrier.costs)
        self.carrier = carrier
        self.layers = list(layers)
        # Instance attributes shadow the class attributes.
        self.name = name
        self.receiver_drain = carrier.receiver_drain

    # -- interface delegation ---------------------------------------------

    def export_descriptor(self, context: ContextLike) -> Descriptor | None:
        inner = self.carrier.export_descriptor(context)
        if inner is None:
            return None
        return dataclasses.replace(inner, method=self.name)

    def applicable(self, local: ContextLike, descriptor: Descriptor,
                   remote_host) -> bool:
        return self.carrier.applicable(local, descriptor, remote_host)

    def open(self, local: ContextLike, descriptor: Descriptor) -> dict:
        return self.carrier.open(local, descriptor)

    # -- data path -----------------------------------------------------------

    def send(self, local: ContextLike, state: dict, descriptor: Descriptor,
             message: WireMessage):
        messages = [message]
        cpu = 0.0
        for layer in self.layers:
            produced: list[WireMessage] = []
            for item in messages:
                out, layer_cpu = layer.transform_send(item)
                produced.extend(out)
                cpu += layer_cpu
            messages = produced
        if cpu > 0:
            yield cpu
        for item in messages:
            yield from self.carrier.send(local, state, descriptor, item)

    def collect(self, context: ContextLike,
                lane: ReceiveLane | None = None) -> list[WireMessage]:
        messages = self.carrier.collect(context, lane)
        for layer in reversed(self.layers):
            surfaced: list[WireMessage] = []
            for item in messages:
                surfaced.extend(layer.transform_deliver(item, context))
            messages = surfaced
        return messages

    def traffic(self) -> tuple[int, int, int, int]:
        """The stack's wire traffic is what its private carrier sent."""
        return self.carrier.traffic()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stack = "+".join(layer.name for layer in self.layers)
        return f"<LayeredTransport {stack}+{self.carrier.name}>"


def make_layered(registry: "TransportRegistry", inner: str,
                 layers: _t.Sequence[ProtocolLayer],
                 name: str | None = None) -> LayeredTransport:
    """Stack ``layers`` over the built-in transport ``inner`` and register
    the result as a new method.

    A private carrier instance of the inner transport is created whose
    *method name* is the composite's (so its deliveries land in the
    composite's inbox) but whose *wire* behaviour (switch profiles, WAN
    link tagging) stays the inner method's.
    """
    prototype = registry.enable(inner)
    composite_name = name or "+".join(
        [layer.name for layer in layers] + [inner])
    carrier = type(prototype)(prototype.services, prototype.costs)
    carrier.name = composite_name                 # inbox / stamping key
    carrier._wire_method = prototype.wire_method  # wire-level lookups
    transport = LayeredTransport(carrier, layers, composite_name)
    registry.register(transport)
    return transport
