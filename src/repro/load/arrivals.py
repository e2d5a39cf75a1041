"""Seeded arrival processes and message-size distributions.

Everything the load tier injects into the stack is generated here, from
named substreams of :mod:`repro.simnet.random` — so a scenario's traffic
is a pure function of its root seed and two runs with the same seed are
byte-identical, no matter how many other consumers draw randomness.

Three families of primitive:

* **Arrival processes** — :class:`OpenLoop` (Poisson arrivals issued on
  a wall schedule regardless of completions; the offered-load model) and
  :class:`ClosedLoop` (a fixed client population with think times; the
  interactive-user model).
* **Rate modulations** — :class:`Bursty` reshapes an open-loop rate
  over sim time (thinned Poisson, so the process stays exact, not
  binned).
* **Size distributions** — :class:`FixedSize` and the capped
  :class:`LognormalSize`.

:class:`MixedRoundPattern` is the deterministic round/exchange schedule
the prior-art baseline workload uses — kept here so every traffic shape
in the repo lives behind one module.
"""

from __future__ import annotations

import dataclasses
import math
import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover
    import numpy as np


class LoadSpecError(ValueError):
    """A load specification is malformed."""


# ---------------------------------------------------------------------------
# message-size distributions
# ---------------------------------------------------------------------------

class SizeDist:
    """Base class: a distribution of RSR payload sizes in bytes."""

    def sample(self, rng: "np.random.Generator") -> int:
        raise NotImplementedError


@dataclasses.dataclass(frozen=True)
class FixedSize(SizeDist):
    """Every message carries exactly ``nbytes``."""

    nbytes: int

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise LoadSpecError(f"negative message size {self.nbytes!r}")

    def sample(self, rng: "np.random.Generator") -> int:
        return self.nbytes

@dataclasses.dataclass(frozen=True)
class LognormalSize(SizeDist):
    """Log-normal sizes around ``median`` with shape ``sigma``, capped.

    The classic fit for RPC payload distributions: most messages small,
    a long right tail of bulk transfers.
    """

    median: float
    sigma: float = 1.0
    cap: int = 1 << 20

    def __post_init__(self) -> None:
        if self.median <= 0 or self.sigma < 0 or self.cap < self.median:
            raise LoadSpecError(
                f"bad lognormal size spec median={self.median!r} "
                f"sigma={self.sigma!r} cap={self.cap!r}")

    def sample(self, rng: "np.random.Generator") -> int:
        value = rng.lognormal(mean=math.log(self.median), sigma=self.sigma)
        return min(int(value), self.cap)

# ---------------------------------------------------------------------------
# rate modulations
# ---------------------------------------------------------------------------

class Modulation:
    """A time-varying multiplier applied to an open-loop rate.

    ``factor(t)`` must lie in ``[0, peak]``; ``peak`` bounds it so the
    thinning construction in :meth:`OpenLoop.times` stays exact.
    """

    peak: float = 1.0

    def factor(self, t: float) -> float:
        raise NotImplementedError


@dataclasses.dataclass(frozen=True)
class Bursty(Modulation):
    """Square-wave bursts: ``boost``× the base rate for the first
    ``duty`` fraction of every ``period``, quiet otherwise."""

    period: float
    duty: float = 0.2
    boost: float = 4.0
    quiet: float = 0.25

    def __post_init__(self) -> None:
        if (self.period <= 0 or not 0.0 < self.duty < 1.0
                or self.boost < 1.0 or self.quiet < 0.0):
            raise LoadSpecError(
                f"bad bursty spec period={self.period!r} duty={self.duty!r} "
                f"boost={self.boost!r} quiet={self.quiet!r}")

    @property
    def peak(self) -> float:  # type: ignore[override]
        return self.boost

    def factor(self, t: float) -> float:
        within = (t / self.period) % 1.0
        return self.boost if within < self.duty else self.quiet


# ---------------------------------------------------------------------------
# arrival processes
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class OpenLoop:
    """Open-loop Poisson arrivals at ``rate`` RSRs/sim-second per client.

    Arrivals are issued on schedule whether or not earlier requests have
    completed — offered load, the quantity a capacity plan sweeps.  With
    a :class:`Modulation` the process is an inhomogeneous Poisson
    process realised by thinning (candidates at ``rate * peak``, each
    kept with probability ``factor(t) / peak``), so modulated and
    unmodulated runs draw from the same exact process family.
    """

    rate: float
    modulation: Modulation | None = None

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise LoadSpecError(f"open-loop rate must be > 0, "
                                f"got {self.rate!r}")

    def times(self, rng: "np.random.Generator", start: float,
              until: float) -> _t.Iterator[float]:
        """Absolute arrival times in ``[start, until)``."""
        modulation = self.modulation
        peak_rate = self.rate * (modulation.peak if modulation else 1.0)
        t = start
        while True:
            t += rng.exponential(1.0 / peak_rate)
            if t >= until:
                return
            if modulation is not None:
                keep = modulation.factor(t) / modulation.peak
                if rng.random() >= keep:
                    continue
            yield t


@dataclasses.dataclass(frozen=True)
class ClosedLoop:
    """Closed-loop clients: issue, await the reply, think, repeat.

    ``think_time`` is the mean of an exponential think delay (or exact
    when ``jitter=False``).  A closed-loop fleet self-limits: offered
    load tracks completion rate, so it probes *latency under
    concurrency* where open-loop probes *stability under offered rate*.
    """

    think_time: float
    jitter: bool = True

    def __post_init__(self) -> None:
        if self.think_time < 0:
            raise LoadSpecError(
                f"negative think time {self.think_time!r}")

    def think(self, rng: "np.random.Generator") -> float:
        if not self.jitter or self.think_time == 0.0:
            return self.think_time
        return float(rng.exponential(self.think_time))


ArrivalProcess = _t.Union[OpenLoop, ClosedLoop]


# ---------------------------------------------------------------------------
# deterministic round schedules (baseline workloads)
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class RoundOp:
    """One round of the mixed prior-art workload."""

    index: int
    local_bytes: int
    remote_bytes: int | None  # None: no inter-partition exchange this round


@dataclasses.dataclass(frozen=True)
class MixedRoundPattern:
    """The baseline mixed workload's deterministic traffic pattern.

    Every round carries a ``local_bytes`` partner exchange; every
    ``remote_every``-th round (starting at round 0) additionally carries
    a ``remote_bytes`` cross-partition exchange.  Extracted from
    :mod:`repro.baselines.workload` so synthetic and prior-art traffic
    shapes share one vocabulary.
    """

    local_bytes: int = 2048
    remote_bytes: int = 16 * 1024
    remote_every: int = 5

    def __post_init__(self) -> None:
        if (self.local_bytes < 0 or self.remote_bytes < 0
                or self.remote_every < 1):
            raise LoadSpecError(
                f"bad mixed-round pattern {self!r}")

    def rounds(self, count: int) -> _t.Iterator[RoundOp]:
        """The first ``count`` rounds of the schedule."""
        for index in range(count):
            yield RoundOp(
                index=index,
                local_bytes=self.local_bytes,
                remote_bytes=(self.remote_bytes
                              if index % self.remote_every == 0 else None),
            )


__all__ = [
    "ArrivalProcess",
    "Bursty",
    "ClosedLoop",
    "FixedSize",
    "LoadSpecError",
    "LognormalSize",
    "MixedRoundPattern",
    "Modulation",
    "OpenLoop",
    "RoundOp",
    "SizeDist",
]
