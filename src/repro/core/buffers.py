"""Typed message buffers (the data argument of a remote service request).

An RSR "is applied to a startpoint by providing a procedure name and a
data buffer".  :class:`Buffer` is that data buffer: a typed, FIFO
pack/unpack container in the spirit of Nexus's XDR-style marshalling.
Elements are appended with ``put_*`` and extracted in the same order with
``get_*``; a type mismatch raises immediately rather than mis-decoding.

Wire size accounting matters here: every element contributes its
serialised size to :attr:`Buffer.nbytes`, which the transports use for
timing.  NumPy arrays are carried by reference (the simulation shares one
address space) but sized at ``arr.nbytes``; a defensive copy is made at
pack time so in-flight data cannot be mutated by the sender — the
semantics a real marshalling layer provides.

Startpoints can be packed too (``put_startpoint``): this is the paper's
central mobility mechanism — the serialised form carries the endpoint
addresses *and* the communication descriptor table, so the receiver of
the buffer learns how to talk to the referenced endpoints.
"""

from __future__ import annotations

import typing as _t

from .errors import BufferError_

if _t.TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from .context import Context
    from .startpoint import Startpoint, WireStartpoint

#: element type tags
_INT = "int"
_FLOAT = "float"
_STR = "str"
_BYTES = "bytes"
_ARRAY = "array"
_STARTPOINT = "startpoint"
_PADDING = "padding"


class Buffer:
    """A typed FIFO pack/unpack buffer with wire-size accounting."""

    __slots__ = ("_items", "_cursor", "_nbytes")

    def __init__(self) -> None:
        self._items: list[tuple[str, object, int]] = []
        self._cursor = 0
        self._nbytes = 0

    # -- introspection ---------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Total serialised size of all packed elements, in bytes."""
        return self._nbytes

    @property
    def remaining(self) -> int:
        """Number of elements not yet extracted."""
        return len(self._items) - self._cursor

    def __len__(self) -> int:
        return len(self._items)

    def element_types(self) -> list[str]:
        """The type tags of all elements, in pack order."""
        return [tag for tag, _value, _size in self._items]

    # -- packing ------------------------------------------------------------

    def _put(self, tag: str, value: object, size: int) -> "Buffer":
        self._items.append((tag, value, size))
        self._nbytes += size
        return self

    def put_int(self, value: int) -> "Buffer":
        """Pack a 64-bit integer."""
        return self._put(_INT, int(value), 8)

    def put_float(self, value: float) -> "Buffer":
        """Pack a 64-bit float."""
        return self._put(_FLOAT, float(value), 8)

    def put_str(self, value: str) -> "Buffer":
        """Pack a length-prefixed UTF-8 string."""
        data = value.encode("utf-8")
        return self._put(_STR, value, 4 + len(data))

    def put_bytes(self, value: bytes) -> "Buffer":
        """Pack a length-prefixed byte string."""
        return self._put(_BYTES, bytes(value), 4 + len(value))

    def put_array(self, value: np.ndarray) -> "Buffer":
        """Pack a NumPy array (copied; sized at ``value.nbytes + 16``)."""
        import numpy as np

        arr = np.array(value, copy=True)
        return self._put(_ARRAY, arr, 16 + arr.nbytes)

    def put_padding(self, nbytes: int) -> "Buffer":
        """Pack ``nbytes`` of payload *by size only* (no stored bytes).

        Benchmarks use this to sweep message sizes without allocating and
        copying megabytes of real data; the wire accounting is identical
        to :meth:`put_bytes`.
        """
        if nbytes < 0:
            raise BufferError_(f"negative padding size {nbytes!r}")
        return self._put(_PADDING, nbytes, nbytes)

    def get_padding(self) -> int:
        """Extract a padding element; returns its size in bytes."""
        return _t.cast(int, self._get(_PADDING))

    def put_startpoint(self, startpoint: "Startpoint", *,
                       lightweight: bool = False) -> "Buffer":
        """Pack a startpoint (serialising its descriptor table).

        With ``lightweight=True`` the descriptor table is omitted (the
        paper's size optimisation for tightly coupled systems); the
        receiver must already know a default table.
        """
        wire = startpoint.to_wire(lightweight=lightweight)
        return self._put(_STARTPOINT, wire, wire.wire_size)

    # -- unpacking -----------------------------------------------------------

    def _get(self, expected: str) -> object:
        if self._cursor >= len(self._items):
            raise BufferError_(f"buffer exhausted while reading {expected!r}")
        tag, value, _size = self._items[self._cursor]
        if tag != expected:
            raise BufferError_(
                f"buffer type mismatch: expected {expected!r}, found {tag!r} "
                f"at element {self._cursor}"
            )
        self._cursor += 1
        return value

    def get_int(self) -> int:
        return _t.cast(int, self._get(_INT))

    def get_float(self) -> float:
        return _t.cast(float, self._get(_FLOAT))

    def get_str(self) -> str:
        return _t.cast(str, self._get(_STR))

    def get_bytes(self) -> bytes:
        return _t.cast(bytes, self._get(_BYTES))

    def get_array(self) -> np.ndarray:
        return _t.cast("np.ndarray", self._get(_ARRAY))

    def get_startpoint(self, context: "Context") -> "Startpoint":
        """Unpack a startpoint *into* ``context``.

        Importing runs the receiving side of the mobility protocol: the
        context builds a fresh startpoint whose links mirror the original
        and whose communication method will be selected (automatically or
        per the context's policy) on first use.
        """
        wire = _t.cast("WireStartpoint", self._get(_STARTPOINT))
        return context.import_startpoint(wire)

    def peek_type(self) -> str | None:
        """The type tag of the next element, or ``None`` at end."""
        if self._cursor >= len(self._items):
            return None
        return self._items[self._cursor][0]

    def rewind(self) -> None:
        """Reset the read cursor (used when one buffer fans out)."""
        self._cursor = 0

    def reader_copy(self) -> "Buffer":
        """A read-view sharing packed data but with an independent cursor.

        Multicast delivers one payload to many endpoints; each handler
        gets its own reader so extraction positions do not interfere.
        """
        clone = Buffer.__new__(Buffer)
        clone._items = self._items
        clone._cursor = 0
        clone._nbytes = self._nbytes
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Buffer elements={len(self._items)} cursor={self._cursor} "
                f"nbytes={self._nbytes}>")
