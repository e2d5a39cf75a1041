"""Shared-resource primitives built on the event engine.

Two primitives cover everything the Nexus reproduction needs:

* :class:`Store` — an unbounded (or bounded) FIFO queue of items with
  event-returning ``put``/``get``.  Transport inboxes, matching queues and
  forwarder work queues are Stores.
* :class:`Resource` — a counted semaphore with FIFO waiters.  Network links
  (serialisation of in-flight messages) and host CPUs are Resources.

Both are deliberately FIFO-fair so simulations stay deterministic.
"""

from __future__ import annotations

import collections
import typing as _t

from .errors import SimnetError
from .events import Event

if _t.TYPE_CHECKING:  # pragma: no cover
    from .engine import Simulator


class StorePut(Event):
    """Event for a pending :meth:`Store.put`; succeeds when the item is stored."""

    __slots__ = ("item",)

    def __init__(self, sim: "Simulator", item: object):
        super().__init__(sim, name="StorePut")
        self.item = item


class StoreGet(Event):
    """Event for a pending :meth:`Store.get`; succeeds with the item."""

    __slots__ = ("filter",)

    def __init__(self, sim: "Simulator",
                 filter: _t.Callable[[object], bool] | None = None):
        super().__init__(sim, name="StoreGet")
        self.filter = filter


class Store:
    """A FIFO item queue with optional capacity and filtered gets.

    ``get(filter=...)`` returns the *first* queued item satisfying the
    filter — this is exactly the semantics MPI tag matching needs.
    """

    def __init__(self, sim: "Simulator", capacity: float = float("inf"),
                 name: str | None = None):
        if capacity <= 0:
            raise SimnetError(f"store capacity must be positive, got {capacity!r}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.items: collections.deque[object] = collections.deque()
        self._putters: collections.deque[StorePut] = collections.deque()
        self._getters: collections.deque[StoreGet] = collections.deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: object) -> StorePut:
        """Queue ``item``; the returned event succeeds once it is stored."""
        event = StorePut(self.sim, item)
        self._putters.append(event)
        self._dispatch()
        return event

    def get(self, filter: _t.Callable[[object], bool] | None = None) -> StoreGet:
        """Request an item; the returned event succeeds with the item."""
        event = StoreGet(self.sim, filter=filter)
        self._getters.append(event)
        self._dispatch()
        return event

    def try_get(self, filter: _t.Callable[[object], bool] | None = None) -> object | None:
        """Non-blocking get: pop and return a matching item, or ``None``.

        This is the primitive the Nexus poll loop uses — a poll either finds
        a pending message or returns immediately.
        """
        if filter is None:
            if self.items:
                item = self.items.popleft()
                self._dispatch()
                return item
            return None
        for index, item in enumerate(self.items):
            if filter(item):
                del self.items[index]
                self._dispatch()
                return item
        return None

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            # Move queued puts into storage while there is room.
            while self._putters and len(self.items) < self.capacity:
                put = self._putters.popleft()
                self.items.append(put.item)
                put.succeed()
                progress = True
            # Satisfy getters in FIFO order; a getter whose filter matches
            # nothing stays queued without blocking later getters whose
            # filters do match (filtered gets are independent).
            pending: collections.deque[StoreGet] = collections.deque()
            while self._getters:
                get = self._getters.popleft()
                if get.filter is None:
                    if self.items:
                        get.succeed(self.items.popleft())
                        progress = True
                    else:
                        pending.append(get)
                else:
                    matched = None
                    for index, item in enumerate(self.items):
                        if get.filter(item):
                            matched = index
                            break
                    if matched is not None:
                        item = self.items[matched]
                        del self.items[matched]
                        get.succeed(item)
                        progress = True
                    else:
                        pending.append(get)
            self._getters = pending

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Store {self.name or ''} items={len(self.items)} "
                f"getters={len(self._getters)} putters={len(self._putters)}>")


class ResourceRequest(Event):
    """Event for a pending :meth:`Resource.request`."""

    __slots__ = ("amount",)

    def __init__(self, sim: "Simulator", amount: int):
        super().__init__(sim, name="ResourceRequest")
        self.amount = amount


class Resource:
    """A counted semaphore with FIFO-fair waiters.

    ``request()`` returns an event that succeeds when the requested units
    are granted; ``release()`` returns them.  Use as::

        yield link.request()
        try:
            yield sim.timeout(transfer_time)
        finally:
            link.release()
    """

    def __init__(self, sim: "Simulator", capacity: int = 1,
                 name: str | None = None):
        if capacity < 1:
            raise SimnetError(f"resource capacity must be >= 1, got {capacity!r}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: collections.deque[ResourceRequest] = collections.deque()

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    def request(self, amount: int = 1) -> ResourceRequest:
        """Ask for ``amount`` units; the event succeeds when granted."""
        if amount < 1 or amount > self.capacity:
            raise SimnetError(
                f"cannot request {amount!r} units of a capacity-"
                f"{self.capacity} resource"
            )
        event = ResourceRequest(self.sim, amount)
        self._waiters.append(event)
        self._grant()
        return event

    def cancel(self, request: ResourceRequest) -> None:
        """Withdraw a still-pending request (e.g. after a send timeout).

        A granted request cannot be cancelled — release it instead; an
        interrupted waiter *must* cancel, or its eventual grant would
        leak capacity forever.  Idempotent for already-cancelled
        requests.
        """
        if request.triggered:
            raise SimnetError(
                "cannot cancel a granted request; release() it instead")
        try:
            self._waiters.remove(request)
        except ValueError:
            pass

    def release(self, amount: int = 1) -> None:
        """Return ``amount`` previously granted units."""
        if amount < 1 or amount > self._in_use:
            raise SimnetError(
                f"release({amount!r}) exceeds units in use ({self._in_use})"
            )
        self._in_use -= amount
        self._grant()

    def _grant(self) -> None:
        # Strict FIFO: the head waiter blocks later (even smaller) requests,
        # which keeps link usage deterministic and starvation-free.
        while self._waiters:
            head = self._waiters[0]
            if self._in_use + head.amount > self.capacity:
                return
            self._waiters.popleft()
            self._in_use += head.amount
            head.succeed()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Resource {self.name or ''} {self._in_use}/{self.capacity} "
                f"waiters={len(self._waiters)}>")
