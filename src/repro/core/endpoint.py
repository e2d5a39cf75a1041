"""Communication endpoints: the receiving half of a communication link.

Endpoints are created in a context and **cannot be copied between
contexts** (only startpoints move).  A local address — here an arbitrary
Python object — can be associated with an endpoint, in which case any
startpoint bound to it acts as a "global pointer" to that object.
"""

from __future__ import annotations

import itertools
import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover
    from .context import Context

_endpoint_ids = itertools.count(1)


class Endpoint:
    """The receiving terminus of communication links.

    Do not instantiate directly; use :meth:`Context.new_endpoint`.
    """

    __slots__ = ("id", "context", "bound_object", "rsrs_received")

    def __init__(self, context: "Context", bound_object: object = None):
        self.id: int = next(_endpoint_ids)
        self.context = context
        #: The local address associated with this endpoint (may be None).
        self.bound_object = bound_object
        self.rsrs_received = 0

    def __deepcopy__(self, memo: dict) -> _t.NoReturn:
        raise TypeError("endpoints cannot be copied between contexts; "
                        "copy the startpoint instead")

    def __copy__(self) -> _t.NoReturn:
        raise TypeError("endpoints cannot be copied between contexts; "
                        "copy the startpoint instead")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Endpoint {self.id} ctx={self.context.id} "
                f"rsrs={self.rsrs_received}>")
