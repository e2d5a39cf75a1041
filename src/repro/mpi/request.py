"""Nonblocking-operation requests (MPI_Request analogue)."""

from __future__ import annotations

import typing as _t

from .errors import RequestError
from .matching import PostedRecv
from .status import Status

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..simnet.process import Process
    from .mpi import MpiProcess


class Request:
    """Handle for an in-flight nonblocking operation.

    ``yield from request.wait()`` blocks (polling) until completion and
    returns ``(data, status)`` for receives or ``None`` for sends;
    ``request.test()`` is the nonblocking completion check.
    """

    def __init__(self, proc: "MpiProcess"):
        self.proc = proc
        self._waited = False

    # -- interface -------------------------------------------------------

    @property
    def complete(self) -> bool:
        raise NotImplementedError

    def _result(self) -> object:
        raise NotImplementedError

    def _until(self):
        """What the wait loop polls on: an Event that fires at completion,
        or a zero-argument completion check.

        Waiting on an event (rather than a bare predicate) lets the poll
        manager's idle fast-forward wake on it — essential for requests
        whose completion is not signalled by a message arrival (sends).
        """
        raise NotImplementedError

    def test(self) -> bool:
        """Nonblocking: has the operation completed?"""
        return self.complete

    def wait(self):
        """Generator: poll until complete, then return the result."""
        if self._waited:
            raise RequestError("request has already been waited on")
        yield from self.proc.context.wait(self._until())
        self._waited = True
        return self._result()


class SendRequest(Request):
    """Completion of an isend (buffer handed to the transport)."""

    def __init__(self, proc: "MpiProcess", process: "Process"):
        super().__init__(proc)
        self._process = process

    @property
    def complete(self) -> bool:
        return not self._process.is_alive

    def _until(self):
        return self._process

    def _result(self) -> None:
        if not self._process.ok:
            raise _t.cast(BaseException, self._process.value)
        return None


class RecvRequest(Request):
    """Completion of an irecv (message matched and decoded)."""

    def __init__(self, proc: "MpiProcess", posted: PostedRecv):
        super().__init__(proc)
        self._posted = posted

    @property
    def complete(self) -> bool:
        return self._posted.done()

    def _until(self):
        return self._posted.done

    def cancel(self) -> None:
        """Withdraw the receive (only while unmatched)."""
        self.proc.matching.cancel(self._posted)

    def _result(self) -> tuple[object, Status]:
        return self._posted.result(self.proc.nexus.sim._clock._now)


def wait_all(requests: _t.Sequence[Request]):
    """Generator: wait on every request; returns their results in order.

    The MPI_Waitall analogue.  Waiting sequentially is equivalent to the
    combined wait (completion is monotone) and lets each request supply
    its own wake-up event to the poll loop.
    """
    results = []
    for request in requests:
        result = yield from request.wait()
        results.append(result)
    return results
