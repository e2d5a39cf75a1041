"""Retry policy for the RSR send path.

A :class:`RetryPolicy` bounds how stubbornly one communication method is
retried before the startpoint fails over to the next applicable method
in the descriptor table.  Delays grow exponentially with seeded jitter
(drawn from the runtime's named ``"retry"`` random substream, so runs
are reproducible).

An attempt is never cut short: it runs until the transport delivers
or reports a synchronous :class:`~repro.transports.errors.DeliveryError`,
and only such a failure is retried.  With no installed faults every
send succeeds on its first attempt.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from .errors import NexusError

if _t.TYPE_CHECKING:  # pragma: no cover
    import numpy as np


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Per-attempt retry/backoff configuration.

    ``max_attempts`` counts total tries per method (1 = no retry);
    backoff for attempt *n* (0-based after the first failure) is
    ``min(base_delay * backoff**n, max_delay)`` stretched by up to
    ``jitter`` (fractional, seeded).
    """

    max_attempts: int = 3
    base_delay: float = 0.001
    max_delay: float = 0.25
    backoff: float = 2.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise NexusError(
                f"max_attempts must be >= 1, got {self.max_attempts!r}")
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise NexusError(
                f"need 0 <= base_delay <= max_delay, got "
                f"{self.base_delay!r}/{self.max_delay!r}")
        if self.backoff < 1.0:
            raise NexusError(f"backoff must be >= 1, got {self.backoff!r}")
        if not (0.0 <= self.jitter <= 1.0):
            raise NexusError(f"jitter must be in [0, 1], got {self.jitter!r}")

    def delay(self, attempt: int,
              rng: "np.random.Generator | None" = None) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        base = min(self.base_delay * self.backoff ** attempt, self.max_delay)
        if self.jitter > 0.0 and rng is not None:
            base *= 1.0 + self.jitter * float(rng.random())
        return base


#: Retry disabled entirely: one attempt — failures fall straight
#: through to failover.
NO_RETRY = RetryPolicy(max_attempts=1, jitter=0.0)
