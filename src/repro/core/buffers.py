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
    from .startpoint import Startpoint

#: element type tags
_INT = "int"
_FLOAT = "float"
_STR = "str"
_BYTES = "bytes"
_ARRAY = "array"
_STARTPOINT = "startpoint"
_PADDING = "padding"
_HEADER = "header"


class Buffer:
    """A typed FIFO pack/unpack buffer with wire-size accounting."""

    __slots__ = ("_items", "_cursor", "_nbytes")

    def __init__(self) -> None:
        self._items: list[tuple[str, _t.Any, int]] = []
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

    # -- packing ------------------------------------------------------------

    # Every ``put_*`` appends its element and adds its size in its own
    # frame, and every ``get_*`` reads the cursor in its own: one call per
    # element either way (an MPI message is a handful of them).

    def put_int(self, value: int) -> "Buffer":
        """Pack a 64-bit integer."""
        self._items.append((_INT, int(value), 8))
        self._nbytes += 8
        return self

    def put_float(self, value: float) -> "Buffer":
        """Pack a 64-bit float."""
        self._items.append((_FLOAT, float(value), 8))
        self._nbytes += 8
        return self

    def put_str(self, value: str) -> "Buffer":
        """Pack a length-prefixed UTF-8 string."""
        size = 4 + len(value.encode("utf-8"))
        self._items.append((_STR, value, size))
        self._nbytes += size
        return self

    def put_bytes(self, value: bytes) -> "Buffer":
        """Pack a length-prefixed byte string."""
        size = 4 + len(value)
        self._items.append((_BYTES, bytes(value), size))
        self._nbytes += size
        return self

    def put_array(self, value: np.ndarray) -> "Buffer":
        """Pack a NumPy array (copied; sized at ``value.nbytes + 16``)."""
        import numpy as np

        arr = np.array(value, copy=True)
        size = 16 + arr.nbytes
        self._items.append((_ARRAY, arr, size))
        self._nbytes += size
        return self

    def put_header(self, *fields: int | float) -> "Buffer":
        """Pack a fixed header of 64-bit integer/float fields as one
        element, sized at 8 B a field (the same wire bytes as one
        :meth:`put_int`/:meth:`put_float` per field)."""
        size = 8 * len(fields)
        self._items.append((_HEADER, fields, size))
        self._nbytes += size
        return self

    def put_padding(self, nbytes: int) -> "Buffer":
        """Pack ``nbytes`` of payload *by size only* (no stored bytes).

        Benchmarks use this to sweep message sizes without allocating and
        copying megabytes of real data; the wire accounting is identical
        to :meth:`put_bytes`.
        """
        if nbytes < 0:
            raise BufferError_(f"negative padding size {nbytes!r}")
        self._items.append((_PADDING, nbytes, nbytes))
        self._nbytes += nbytes
        return self

    def put_startpoint(self, startpoint: "Startpoint", *,
                       lightweight: bool = False) -> "Buffer":
        """Pack a startpoint (serialising its descriptor table).

        With ``lightweight=True`` the descriptor table is omitted (the
        paper's size optimisation for tightly coupled systems); the
        receiver must already know a default table.
        """
        wire = startpoint.to_wire(lightweight=lightweight)
        self._items.append((_STARTPOINT, wire, wire.wire_size))
        self._nbytes += wire.wire_size
        return self

    # -- unpacking -----------------------------------------------------------

    def _miss(self, expected: str) -> _t.NoReturn:
        """Raise for a read of ``expected`` that cannot be served: the
        buffer is exhausted, or the next element has another type (the
        cursor does not move)."""
        if self._cursor >= len(self._items):
            raise BufferError_(f"buffer exhausted while reading {expected!r}")
        tag = self._items[self._cursor][0]
        raise BufferError_(
            f"buffer type mismatch: expected {expected!r}, found {tag!r} "
            f"at element {self._cursor}"
        )

    def get_int(self) -> int:
        try:
            tag, value, _size = self._items[self._cursor]
        except IndexError:
            self._miss(_INT)
        if tag != _INT:
            self._miss(_INT)
        self._cursor += 1
        return value

    def get_float(self) -> float:
        try:
            tag, value, _size = self._items[self._cursor]
        except IndexError:
            self._miss(_FLOAT)
        if tag != _FLOAT:
            self._miss(_FLOAT)
        self._cursor += 1
        return value

    def get_str(self) -> str:
        try:
            tag, value, _size = self._items[self._cursor]
        except IndexError:
            self._miss(_STR)
        if tag != _STR:
            self._miss(_STR)
        self._cursor += 1
        return value

    def get_bytes(self) -> bytes:
        try:
            tag, value, _size = self._items[self._cursor]
        except IndexError:
            self._miss(_BYTES)
        if tag != _BYTES:
            self._miss(_BYTES)
        self._cursor += 1
        return value

    def get_array(self) -> np.ndarray:
        try:
            tag, value, _size = self._items[self._cursor]
        except IndexError:
            self._miss(_ARRAY)
        if tag != _ARRAY:
            self._miss(_ARRAY)
        self._cursor += 1
        return value

    def get_header(self) -> tuple:
        """Extract a header element: its fields, in pack order."""
        try:
            tag, value, _size = self._items[self._cursor]
        except IndexError:
            self._miss(_HEADER)
        if tag != _HEADER:
            self._miss(_HEADER)
        self._cursor += 1
        return value

    def get_padding(self) -> int:
        """Extract a padding element; returns its size in bytes."""
        try:
            tag, value, _size = self._items[self._cursor]
        except IndexError:
            self._miss(_PADDING)
        if tag != _PADDING:
            self._miss(_PADDING)
        self._cursor += 1
        return value

    def get_startpoint(self, context: "Context") -> "Startpoint":
        """Unpack a startpoint *into* ``context``.

        Importing runs the receiving side of the mobility protocol: the
        context builds a fresh startpoint whose links mirror the original
        and whose communication method will be selected (automatically or
        per the context's policy) on first use.
        """
        try:
            tag, wire, _size = self._items[self._cursor]
        except IndexError:
            self._miss(_STARTPOINT)
        if tag != _STARTPOINT:
            self._miss(_STARTPOINT)
        self._cursor += 1
        return context.import_startpoint(wire)

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
