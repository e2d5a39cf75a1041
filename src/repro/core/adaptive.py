"""Adaptive skip_poll adjustment (the paper's "future work", implemented).

Section 6: "Polling functions can be further refined, for example to
allow for adaptive adjustment of skip_poll values".  This controller
observes a method's poll hit rate and the staleness of the messages it
finds and steers ``skip_poll`` between configured bounds:

* polls that keep coming up empty → the method is infrequently used →
  multiply ``skip_poll`` up (cheap polls for everyone else);
* a found message that had been sitting in the kernel buffer for longer
  than ``latency_budget`` → we are detecting too late → cut ``skip_poll``
  sharply (multiplicative decrease).

The increase/decrease asymmetry (slow ramp, fast backoff) is the classic
control shape for this trade-off; the ablation benchmark
(:mod:`benchmarks.bench_ablations`) shows it landing near the statically
tuned optimum on the dual ping-pong workload without manual tuning.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from .errors import PollingError

if _t.TYPE_CHECKING:  # pragma: no cover
    from .context import Context


@dataclasses.dataclass
class AdaptiveConfig:
    """Tuning knobs for :class:`AdaptiveSkipPoll`."""

    min_skip: int = 1
    max_skip: int = 1 << 16
    #: Consecutive empty firing polls before skip is raised.
    raise_after_misses: int = 8
    #: Multiplicative factors.
    increase_factor: float = 2.0
    decrease_factor: float = 4.0
    #: A found message older than this (seconds in the kernel buffer)
    #: triggers a decrease.
    latency_budget: float = 5e-3

    def __post_init__(self) -> None:
        if self.min_skip < 1 or self.max_skip < self.min_skip:
            raise PollingError("bad adaptive skip bounds")
        if self.increase_factor <= 1.0 or self.decrease_factor <= 1.0:
            raise PollingError("adaptive factors must exceed 1")


class AdaptiveSkipPoll:
    """Online controller for one method's skip_poll value at one context.

    Wire it in by calling :meth:`observe` after each firing poll of the
    controlled method — or :meth:`attach` it to the method's observer
    slot on the context's poll manager, which then reports every run of
    the polling function, so applications need no changes.
    """

    def __init__(self, context: "Context", method: str,
                 config: AdaptiveConfig | None = None):
        self.context = context
        self.method = method
        self.config = config or AdaptiveConfig()
        self._misses = 0
        # Running fire/message watermarks, so fires accounted in bulk
        # (busy_work phases, idle fast-forwards) between two observed
        # polls are credited to the controller too.
        self._seen_fires = 0
        self._seen_messages = 0
        self.adjustments: list[tuple[float, int]] = []
        if method not in context.poll_manager.methods:
            raise PollingError(f"context does not poll method {method!r}")

    @property
    def skip(self) -> int:
        return self.context.poll_manager.get_skip(self.method)

    def _set_skip(self, value: int) -> None:
        value = max(self.config.min_skip, min(self.config.max_skip, value))
        if value != self.skip:
            self.context.poll_manager.set_skip(self.method, value)
            self.adjustments.append((self.context.nexus.sim.now, value))

    def observe(self, found: int, oldest_wait: float = 0.0,
                fires: int = 1) -> None:
        """Feed firing-poll outcomes to the controller.

        Parameters
        ----------
        found:
            Number of messages the poll(s) delivered.
        oldest_wait:
            Longest time any of them sat undetected (arrival→detection).
        fires:
            How many firing polls this observation covers (bulk-accounted
            application phases report many at once).
        """
        cfg = self.config
        if found == 0:
            self._misses += max(fires, 1)
            while self._misses >= cfg.raise_after_misses:
                self._misses -= cfg.raise_after_misses
                if self.skip >= cfg.max_skip:
                    self._misses = 0
                    break
                self._set_skip(int(self.skip * cfg.increase_factor) or 1)
            return
        self._misses = 0
        if oldest_wait > cfg.latency_budget:
            self._set_skip(max(cfg.min_skip,
                               int(self.skip / cfg.decrease_factor)))

    # -- transparent attachment ----------------------------------------------

    def attach(self) -> None:
        """Take the method's observer slot on the context's poll manager,
        so observations are automatic.  Idempotent; a method that another
        controller already watches raises :class:`PollingError`."""
        self.context.poll_manager.attach_observer(self.method, self)

    def detach(self) -> None:
        """Give the observer slot back (no-op unless attached)."""
        self.context.poll_manager.detach_observer(self.method, self)

    def polled(self, fires: int, messages: int, oldest_wait: float) -> None:
        """Observer-slot callback: the method's running totals after one
        run of the polling function (see ``PollObserver``)."""
        fired = fires - self._seen_fires
        found = messages - self._seen_messages
        self._seen_fires = fires
        self._seen_messages = messages
        if fired:
            self.observe(found, oldest_wait=oldest_wait, fires=fired)
