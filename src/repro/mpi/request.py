"""Nonblocking-receive requests (MPI_Request analogue)."""

from __future__ import annotations

import typing as _t

from .errors import RequestError
from .matching import PostedRecv

if _t.TYPE_CHECKING:  # pragma: no cover
    from .mpi import MpiProcess


class Request:
    """Handle for an irecv in flight over its posted receive.

    ``yield from request.wait()`` blocks (polling) until the message is
    matched and decoded, and returns ``(data, status)``.
    """

    def __init__(self, proc: "MpiProcess", posted: PostedRecv):
        self.proc = proc
        self._posted = posted
        self._waited = False

    def wait(self):
        """Generator: poll until complete, then return the result."""
        if self._waited:
            raise RequestError("request has already been waited on")
        posted = self._posted
        yield from self.proc.context.wait(posted.done)
        self._waited = True
        return posted.result(self.proc.nexus.sim._now)
