"""Payload handling for the mini-MPI layer.

mpi4py-style duality: NumPy arrays travel "the fast way" (copied,
sized at ``arr.nbytes``); scalars, strings, bytes and small tuples of
those travel as typed buffer elements.  :func:`pack_payload` and
:func:`unpack_payload` translate between Python values and the Nexus
:class:`~repro.core.buffers.Buffer` wire form.
"""

from __future__ import annotations

import typing as _t

import numpy as np

from ..core.buffers import Buffer
from .errors import MpiError

#: payload kind tags
_K_NONE = 0
_K_INT = 1
_K_FLOAT = 2
_K_STR = 3
_K_BYTES = 4
_K_ARRAY = 5
_K_TUPLE = 6
_K_PADDED = 7

Payload = _t.Union[None, int, float, str, bytes, np.ndarray, tuple, "Padded"]


class Padded:
    """A payload wrapper declaring extra wire bytes.

    Benchmarks and the climate model use this to send paper-scale message
    *sizes* (hundreds of megabytes of transpose data) while carrying only
    a small real value: the declared padding is pure wire accounting, no
    memory is allocated.  Receivers get the inner ``value`` back —
    padding is invisible above the wire.
    """

    __slots__ = ("value", "pad_bytes")

    def __init__(self, value: "Payload", pad_bytes: int):
        if pad_bytes < 0:
            raise MpiError(f"negative padding {pad_bytes!r}")
        self.value = value
        self.pad_bytes = int(pad_bytes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Padded({self.value!r}, pad_bytes={self.pad_bytes})"


def payload_nbytes(value: Payload) -> int:
    """Wire size of a payload, in bytes (for enquiry/estimation)."""
    # The two classes Table 1 sends are tested exactly first; every other
    # value, subclasses included (bool, np.float64, an ndarray subclass),
    # takes the isinstance chain, so each class keeps its branch.
    cls = value.__class__
    if cls is np.ndarray:
        return 16 + value.nbytes
    if cls is Padded:
        return value.pad_bytes + payload_nbytes(value.value)
    if value is None:
        return 0
    if isinstance(value, (bool, int, np.integer)):
        return 8
    if isinstance(value, (float, np.floating)):
        return 8
    if isinstance(value, str):
        return 4 + len(value.encode("utf-8"))
    if isinstance(value, bytes):
        return 4 + len(value)
    if isinstance(value, np.ndarray):
        return 16 + value.nbytes
    if isinstance(value, tuple):
        return 4 + sum(payload_nbytes(v) for v in value)
    if isinstance(value, Padded):
        return value.pad_bytes + payload_nbytes(value.value)
    raise MpiError(f"unsupported MPI payload type {type(value).__name__}")


def pack_payload(buffer: Buffer, value: Payload) -> None:
    """Append ``value`` (kind-tagged) to ``buffer``."""
    cls = value.__class__  # exact classes first, as in payload_nbytes
    if cls is np.ndarray:
        buffer.put_int(_K_ARRAY)
        buffer.put_array(value)
    elif cls is Padded:
        buffer.put_int(_K_PADDED)
        buffer.put_padding(value.pad_bytes)
        pack_payload(buffer, value.value)
    elif value is None:
        buffer.put_int(_K_NONE)
    elif isinstance(value, (bool, int, np.integer)):
        buffer.put_int(_K_INT)
        buffer.put_int(int(value))
    elif isinstance(value, (float, np.floating)):
        buffer.put_int(_K_FLOAT)
        buffer.put_float(float(value))
    elif isinstance(value, str):
        buffer.put_int(_K_STR)
        buffer.put_str(value)
    elif isinstance(value, bytes):
        buffer.put_int(_K_BYTES)
        buffer.put_bytes(value)
    elif isinstance(value, np.ndarray):
        buffer.put_int(_K_ARRAY)
        buffer.put_array(value)
    elif isinstance(value, tuple):
        buffer.put_int(_K_TUPLE)
        buffer.put_int(len(value))
        for item in value:
            pack_payload(buffer, item)
    elif isinstance(value, Padded):
        buffer.put_int(_K_PADDED)
        buffer.put_padding(value.pad_bytes)
        pack_payload(buffer, value.value)
    else:
        raise MpiError(f"unsupported MPI payload type {type(value).__name__}")


def unpack_payload(buffer: Buffer) -> Payload:
    """Extract one kind-tagged payload from ``buffer``."""
    kind = buffer.get_int()
    if kind == _K_ARRAY:
        return buffer.get_array()
    if kind == _K_PADDED:
        buffer.get_padding()
        return unpack_payload(buffer)  # padding is wire-only filler
    if kind == _K_NONE:
        return None
    if kind == _K_INT:
        return buffer.get_int()
    if kind == _K_FLOAT:
        return buffer.get_float()
    if kind == _K_STR:
        return buffer.get_str()
    if kind == _K_BYTES:
        return buffer.get_bytes()
    if kind == _K_TUPLE:
        length = buffer.get_int()
        return tuple(unpack_payload(buffer) for _ in range(length))
    raise MpiError(f"corrupt payload kind {kind}")
