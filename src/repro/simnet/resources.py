"""Shared-resource primitives built on the event engine.

Two primitives cover everything the Nexus reproduction needs:

* :class:`Store` — an unbounded FIFO queue of items with event-returning
  ``put``/``get``.  Transport inboxes and the PVM daemon's work queue are
  Stores.
* :class:`Resource` — a lock with FIFO waiters.  An IP channel holds one
  while a message serialises onto the wire.

Both are deliberately FIFO-fair so simulations stay deterministic.
"""

from __future__ import annotations

import collections
import typing as _t

from .errors import SimnetError
from .events import Event

if _t.TYPE_CHECKING:  # pragma: no cover
    from .engine import Simulator


class Store:
    """An unbounded FIFO item queue.

    Items and waiting getters are never both queued: a put hands its item
    to the oldest getter if there is one, and a get takes the oldest item
    if there is one.
    """

    def __init__(self, sim: "Simulator", name: str | None = None):
        self.sim = sim
        self.name = name
        self.items: collections.deque[object] = collections.deque()
        self._getters: collections.deque[Event] = collections.deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: object) -> Event:
        """Queue ``item``; the returned event has already succeeded.

        The event is still scheduled, so every put is one processed
        simulator event (the event counts of recorded runs include it).
        """
        event = Event(self.sim, "StorePut")
        self.items.append(item)
        event.succeed()
        if self._getters:
            self._getters.popleft().succeed(self.items.popleft())
        return event

    def get(self) -> Event:
        """Request an item; the returned event succeeds with the item."""
        event = Event(self.sim, "StoreGet")
        if self.items:
            event.succeed(self.items.popleft())
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> object | None:
        """Non-blocking get: pop and return the oldest item, or ``None``.

        This is the primitive the Nexus poll loop uses — a poll either finds
        a pending message or returns immediately.
        """
        if self.items:
            return self.items.popleft()
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Store {self.name or ''} items={len(self.items)} "
                f"getters={len(self._getters)}>")


class Resource:
    """A lock with FIFO-fair waiters.

    ``request()`` returns an event that succeeds when the lock is granted;
    ``release()`` hands it to the oldest waiter, or frees it.  Use as::

        yield channel.request()
        yield sim.timeout(transfer_time)
        channel.release()
    """

    def __init__(self, sim: "Simulator", name: str | None = None):
        self.sim = sim
        self.name = name
        self._held = False
        self._waiters: collections.deque[Event] = collections.deque()

    def request(self) -> Event:
        """Ask for the lock; the event succeeds when it is granted."""
        event = Event(self.sim, "ResourceRequest")
        if self._held:
            self._waiters.append(event)
        else:
            self._held = True
            event.succeed()
        return event

    def release(self) -> None:
        """Give the lock up: to the oldest waiter, if any."""
        if not self._held:
            raise SimnetError(f"release() of {self!r}, which nobody holds")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._held = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Resource {self.name or ''} held={self._held} "
                f"waiters={len(self._waiters)}>")
