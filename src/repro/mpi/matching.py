"""Two-sided message matching on top of one-sided RSRs.

This is the heart of layering MPI on Nexus: incoming ``__mpi__`` RSRs
deposit :class:`MpiMessage` envelopes into per-process matching queues;
receives either match an *unexpected* message already queued or post a
:class:`PostedRecv` that a future delivery completes.

Matching follows the MPI rules: a receive with ``(source, tag)`` — each
possibly a wildcard — matches the *earliest* queued message with the same
communicator context whose source and tag agree; posted receives are
considered in post order (non-overtaking).
"""

from __future__ import annotations

import dataclasses

from .datatypes import Payload
from .errors import MatchingError
from .status import ANY_SOURCE, ANY_TAG, Status


@dataclasses.dataclass
class MpiMessage:
    """A delivered point-to-point message awaiting (or past) matching.

    Under the rendezvous protocol a message can match *before* its data
    arrives: an RTS envelope carries ``pending_token`` and no payload;
    the payload is filled in when the DATA transfer lands.
    """

    context_id: int   # communicator context (separates p2p/collective spaces)
    source: int       # sender rank in the communicator
    tag: int
    payload: Payload
    nbytes: int
    sent_at: float
    arrived_at: float
    #: Rendezvous token; None for eager messages.
    pending_token: int | None = None
    #: Sender's world rank (rendezvous only; where the CTS goes).
    sender_world: int | None = None


@dataclasses.dataclass
class PostedRecv:
    """A receive posted before its message arrived."""

    context_id: int
    source: int  # may be ANY_SOURCE
    tag: int     # may be ANY_TAG
    #: Filled in at match time.
    message: MpiMessage | None = None
    #: For rendezvous matches: set once the DATA transfer has landed.
    data_arrived: bool = False

    def done(self) -> bool:
        """Matched, and (for a rendezvous match) its data has landed: the
        check a blocking receive's wait loop polls, as a bound method."""
        message = self.message
        return message is not None and (message.pending_token is None
                                        or self.data_arrived)

    def matches(self, message: MpiMessage) -> bool:
        if message.context_id != self.context_id:
            return False
        if self.source != ANY_SOURCE and message.source != self.source:
            return False
        if self.tag != ANY_TAG and message.tag != self.tag:
            return False
        return True

    def result(self, received_at: float) -> tuple[Payload, Status]:
        """A completed receive's ``(data, status)``."""
        status = self.status(received_at)
        assert self.message is not None
        return self.message.payload, status

    def status(self, received_at: float) -> Status:
        if self.message is None:
            raise MatchingError("status() on an incomplete receive")
        return Status(
            source=self.message.source,
            tag=self.message.tag,
            nbytes=self.message.nbytes,
            sent_at=self.message.sent_at,
            received_at=received_at,
        )


class MatchingQueues:
    """Posted-receive and unexpected-message queues for one process."""

    def __init__(self) -> None:
        self.posted: list[PostedRecv] = []
        self.unexpected: list[MpiMessage] = []
        self.messages_matched = 0
        self.max_unexpected = 0
        #: Peak bytes parked in the unexpected queue — the buffer-memory
        #: pressure the rendezvous protocol exists to bound.
        self.max_unexpected_bytes = 0

    # -- delivery side (called from the __mpi__ handler) ---------------------

    def deliver(self, message: MpiMessage) -> PostedRecv | None:
        """Route an arriving message: complete the earliest matching
        posted receive, or queue it as unexpected.  Returns the completed
        receive, if any."""
        for index, posted in enumerate(self.posted):
            if posted.matches(message):
                del self.posted[index]
                posted.message = message
                self.messages_matched += 1
                return posted
        self.unexpected.append(message)
        self.max_unexpected = max(self.max_unexpected, len(self.unexpected))
        parked = sum(0 if m.pending_token is not None else m.nbytes
                     for m in self.unexpected)
        self.max_unexpected_bytes = max(self.max_unexpected_bytes, parked)
        return None

    # -- receive side -----------------------------------------------------------

    def post(self, context_id: int, source: int, tag: int) -> PostedRecv:
        """Post a receive: match an unexpected message now, or enqueue.

        The returned object's ``done`` check is what the receive wait
        loop polls on.
        """
        posted = PostedRecv(context_id=context_id, source=source, tag=tag)
        for index, message in enumerate(self.unexpected):
            if posted.matches(message):
                del self.unexpected[index]
                posted.message = message
                self.messages_matched += 1
                return posted
        self.posted.append(posted)
        return posted

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<MatchingQueues posted={len(self.posted)} "
                f"unexpected={len(self.unexpected)}>")
