"""Receive status objects (the MPI ``MPI_Status`` analogue)."""

from __future__ import annotations

import dataclasses

#: Wildcards (match any source rank / any tag).
ANY_SOURCE = -1
ANY_TAG = -1


@dataclasses.dataclass(frozen=True)
class Status:
    """What a completed receive reports about the matched message."""

    source: int
    tag: int
    nbytes: int
    sent_at: float
    received_at: float
