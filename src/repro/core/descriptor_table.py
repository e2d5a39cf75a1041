"""Communication descriptor tables (Figure 2's central data structure).

A descriptor table is "a concise and easily communicated representation
of information about communication methods": the ordered list of
:class:`~repro.transports.base.Descriptor` entries a context publishes.
Order matters — the automatic selection rule scans the table in order and
takes the first applicable entry, so a fastest-first ordering realises a
fastest-first policy, and the user can influence selection by reordering,
adding, or deleting entries (Section 3.2).
"""

from __future__ import annotations

import typing as _t

from ..transports.base import Descriptor
from .errors import SelectionError


class CommDescriptorTable:
    """An ordered, wire-serialisable list of communication descriptors.

    A table is a value: it holds a tuple, and the editors (:meth:`add`,
    :meth:`remove`, :meth:`replace`, :meth:`reorder`, :meth:`promote`)
    return a new table and leave this one unchanged.  Whoever owns a
    table — a context's export table, a link's carried table — rebinds
    the result.  So tables are shared, never copied (:meth:`copy`
    returns ``self``), and a send-path cache (see ``startpoint.Link``)
    detects an edit by the table's identity alone.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: _t.Iterable[Descriptor] = ()):
        self._entries: tuple[Descriptor, ...] = tuple(entries)

    # -- collection protocol --------------------------------------------------

    def __iter__(self) -> _t.Iterator[Descriptor]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, method: str) -> bool:
        return any(d.method == method for d in self._entries)

    def __getitem__(self, index: int) -> Descriptor:
        return self._entries[index]

    @property
    def methods(self) -> list[str]:
        """Method names in table order."""
        return [d.method for d in self._entries]

    def _index(self, method: str) -> int:
        for index, descriptor in enumerate(self._entries):
            if descriptor.method == method:
                return index
        raise SelectionError(f"descriptor table has no entry for {method!r}")

    def entry(self, method: str) -> Descriptor:
        """The first entry for ``method``; raises if absent."""
        return self._entries[self._index(method)]

    # -- user manipulation (Section 3.2): each returns a new table ---------

    def _splice(self, index: int, *new: Descriptor) -> "CommDescriptorTable":
        entries = self._entries
        return CommDescriptorTable(entries[:index] + new + entries[index + 1:])

    def add(self, descriptor: Descriptor,
            position: int | None = None) -> "CommDescriptorTable":
        """Insert a descriptor (at ``position``, default append)."""
        entries = list(self._entries)
        entries.insert(len(entries) if position is None else position,
                       descriptor)
        return CommDescriptorTable(entries)

    def remove(self, method: str) -> "CommDescriptorTable":
        """Delete the first entry for ``method``."""
        return self._splice(self._index(method))

    def replace(self, method: str,
                descriptor: Descriptor) -> "CommDescriptorTable":
        """Swap the entry for ``method`` (same position)."""
        return self._splice(self._index(method), descriptor)

    def reorder(self, methods: _t.Sequence[str]) -> "CommDescriptorTable":
        """Reorder entries to match ``methods``; unlisted entries keep
        their relative order after the listed ones."""
        listed = [self.entry(method) for method in methods]
        return CommDescriptorTable(
            listed + [d for d in self._entries if d not in listed])

    def promote(self, method: str) -> "CommDescriptorTable":
        """Move ``method`` to the front (make it the preferred method)."""
        return self.remove(method).add(self.entry(method), 0)

    def copy(self) -> "CommDescriptorTable":
        return self  # a value needs no copy

    def without(self, methods: _t.Collection[str]) -> "CommDescriptorTable":
        """A filtered copy excluding ``methods`` (order preserved).

        This is how health-based failover reuses the first-applicable
        rule: scan the same table minus the methods currently down.
        Returns ``self`` unchanged when ``methods`` is empty.
        """
        if not methods:
            return self
        return CommDescriptorTable(
            d for d in self._entries if d.method not in methods)

    # -- wire form -------------------------------------------------------------

    @property
    def wire_size(self) -> int:
        """Serialised size in bytes ("a few tens of bytes" in the paper)."""
        return 4 + sum(d.wire_size for d in self._entries)

    def to_wire(self) -> tuple:
        return tuple(d.to_wire() for d in self._entries)

    @classmethod
    def from_wire(cls, wire: tuple) -> "CommDescriptorTable":
        return cls(Descriptor.from_wire(entry) for entry in wire)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<CommDescriptorTable {self.methods}>"
