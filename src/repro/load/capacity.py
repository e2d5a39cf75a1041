"""Capacity planning: the highest offered rate a configuration sustains.

:func:`find_capacity` answers the operator question the paper's §4.3
tables gesture at — *how much load can this tuning actually carry?* —
by bisecting on total open-loop offered rate: run the scenario at a
candidate rate, judge it against an :class:`~repro.load.slo.SLO`, and
narrow the bracket until the passing and failing rates are within
``tolerance`` of each other.

Every probe is a fresh, fully deterministic :func:`run_scenario`
execution (same seed ⇒ same traffic at a given rate), and the bisection
itself is pure arithmetic on the bracket — so the whole search is a
pure function of (scenario, slo, bracket), reproducible byte for byte.
"""

from __future__ import annotations

import contextlib
import dataclasses
import typing as _t

from .arrivals import LoadSpecError
from .clients import run_scenario
from .scenario import LoadScenario
from .slo import SLO, SLOVerdict, evaluate


@dataclasses.dataclass(frozen=True)
class CapacityProbe:
    """One bisection step: a rate that was tried and how it fared."""

    rate: float
    passed: bool
    delivered_rate: float
    p50_us: float | None
    p99_us: float | None
    verdict: SLOVerdict

    def as_dict(self) -> dict[str, object]:
        return {
            "rate": self.rate,
            "passed": self.passed,
            "delivered_rate": self.delivered_rate,
            "p50_us": self.p50_us,
            "p99_us": self.p99_us,
            "verdict": self.verdict.as_dict(),
        }


@dataclasses.dataclass(frozen=True)
class CapacityResult:
    """Outcome of one capacity search."""

    scenario: str
    slo: str
    #: Highest probed rate that met the SLO (0.0 when even ``low``
    #: fails — the configuration has no SLO-compliant operating point
    #: in the bracket).
    capacity: float
    #: Lowest probed rate that violated the SLO (``None`` when even
    #: ``high`` passes — the bracket never reached saturation).
    first_failing_rate: float | None
    probes: tuple[CapacityProbe, ...]

    def as_dict(self) -> dict[str, object]:
        return {
            "scenario": self.scenario,
            "slo": self.slo,
            "capacity": self.capacity,
            "first_failing_rate": self.first_failing_rate,
            "probes": [probe.as_dict() for probe in self.probes],
        }


def _probe(scenario: LoadScenario, slo: SLO, rate: float) -> CapacityProbe:
    result = run_scenario(scenario.at_rate(rate))
    verdict = evaluate(result, slo)
    return CapacityProbe(
        rate=rate,
        passed=verdict.passed,
        delivered_rate=result.delivered_rate,
        p50_us=result.quantile_us(0.5),
        p99_us=result.quantile_us(0.99),
        verdict=verdict,
    )


def find_capacity(scenario: LoadScenario, slo: SLO, *,
                  low: float, high: float,
                  tolerance: float = 0.05,
                  max_probes: int = 12,
                  on_probe: _t.Callable[[CapacityProbe], None] | None = None,
                  parallel: int = 1,
                  pool: _t.Any | None = None,
                  ) -> CapacityResult:
    """Bisect offered rate for the highest SLO-compliant operating point.

    ``low``/``high`` bracket the search in total open-loop RSRs per
    sim-second; ``tolerance`` is the relative bracket width at which the
    search stops.  ``on_probe`` (if given) observes each probe as it
    completes — progress reporting for CLIs.

    ``parallel=k`` turns on **speculative** search: up to ``k`` probe
    rates are evaluated concurrently across a
    :class:`~repro.fleet.pool.FleetPool` — the serial bisection's next
    rate plus the rates it *would* try next down each branch of the
    pass/fail decision tree.  Verdicts are then replayed in serial
    order, mispredicted branches are discarded, and the result —
    capacity, first failing rate, and the exact probe sequence — is
    identical to ``parallel=1``.  The workers are the process's warm
    fleet pool (started on first use, kept until
    :func:`repro.fleet.shutdown` or exit); ``pool`` (optional) supplies
    one of the caller's own instead, which is left open.
    """
    if not 0 < low < high:
        raise LoadSpecError(f"bad capacity bracket [{low!r}, {high!r}]")
    if not 0 < tolerance < 1:
        raise LoadSpecError(f"bad tolerance {tolerance!r}")
    if parallel < 1:
        raise LoadSpecError(f"bad parallel width {parallel!r}")
    if scenario.open_rate <= 0:
        raise LoadSpecError(
            f"scenario {scenario.name!r} has no open-loop fleets to sweep")

    if parallel > 1 or pool is not None:
        return _find_capacity_speculative(
            scenario, slo, low=low, high=high, tolerance=tolerance,
            max_probes=max_probes, on_probe=on_probe,
            parallel=max(parallel, 1), pool=pool)

    def compute(rate: float) -> CapacityProbe:
        probe = _probe(scenario, slo, rate)
        if on_probe is not None:
            on_probe(probe)
        return probe

    # The serial search is the replay over a lookup that never misses.
    result, _needed, _probes = _replay(
        compute, scenario_name=scenario.name, slo_name=slo.name,
        low=low, high=high, tolerance=tolerance, max_probes=max_probes)
    assert result is not None
    return result


# -- speculative parallel search ----------------------------------------------
#
# The serial bisection is a chain of data-dependent probes: the next
# rate depends on the last verdict.  But each probe is a pure function
# of (scenario, slo, rate), so the *candidate* rates down every branch
# of the pass/fail decision tree are known in advance — exactly the
# bisection analogue of speculative execution.  Each round evaluates up
# to `parallel` frontier rates concurrently, then replays the bisection
# (`_replay`, the one copy of it) against the verdict cache; rates the
# serial path never reaches are wasted work and are discarded.  The
# frontier computes its mids with the replay's own expression
# ((best + worst) / 2.0), so speculated rates hit the cache bit for
# bit, and the returned result — including the probe *sequence* —
# equals the serial one exactly.

def _speculative_rates(best: float, worst: float, done: int, *,
                       tolerance: float, max_probes: int,
                       width: int) -> list[float]:
    """The next ``width`` rates the serial search could need, BFS order."""
    rates: list[float] = []
    frontier = [(best, worst, done)]
    while frontier and len(rates) < width:
        b, w, n = frontier.pop(0)
        if n >= max_probes or (w - b) <= tolerance * b:
            continue
        mid = (b + w) / 2.0
        if mid not in rates:
            rates.append(mid)
        frontier.append((mid, w, n + 1))   # if mid passes
        frontier.append((b, mid, n + 1))   # if mid fails
    return rates


def _replay(lookup: _t.Callable[[float], CapacityProbe | None], *,
            scenario_name: str, slo_name: str, low: float, high: float,
            tolerance: float, max_probes: int
            ) -> tuple[CapacityResult | None, list[float],
                       list[CapacityProbe]]:
    """The bisection, over ``lookup(rate)`` — a probe, or ``None`` for a
    rate not evaluated yet.

    Each rate is looked up exactly once, in serial order.  Returns
    ``(result, needed, probes)``: the finished result (or ``None`` if
    the walk blocked on a miss), the rates to evaluate next
    (serial-order first), and the probe prefix consumed so far.
    """
    probes: list[CapacityProbe] = []

    def done(capacity: float, first_failing: float | None):
        return CapacityResult(scenario=scenario_name, slo=slo_name,
                              capacity=capacity,
                              first_failing_rate=first_failing,
                              probes=tuple(probes)), [], probes

    low_probe = lookup(low)
    if low_probe is None:
        return None, [low, high], probes
    probes.append(low_probe)
    if not low_probe.passed:
        return done(0.0, low)

    high_probe = lookup(high)
    if high_probe is None:
        return None, [high], probes
    probes.append(high_probe)
    if high_probe.passed:
        return done(high, None)

    best, worst = low, high
    while len(probes) < max_probes and (worst - best) > tolerance * best:
        mid = (best + worst) / 2.0
        probe = lookup(mid)
        if probe is None:
            return None, [mid], probes
        probes.append(probe)
        if probe.passed:
            best = mid
        else:
            worst = mid
    return done(best, worst)


def _find_capacity_speculative(
        scenario: LoadScenario, slo: SLO, *, low: float, high: float,
        tolerance: float, max_probes: int,
        on_probe: _t.Callable[[CapacityProbe], None] | None,
        parallel: int, pool: _t.Any | None) -> CapacityResult:
    # Imported lazily: repro.load must stay importable without dragging
    # the fleet layer (and multiprocessing) into every consumer.
    from ..fleet.pool import FleetTask, shared_pool

    cache: dict[float, CapacityProbe] = {}
    reported = 0
    batch = 0
    with (shared_pool(parallel) if pool is None
          else contextlib.nullcontext(pool)) as pool:
        width = max(parallel, pool.workers)
        while True:
            result, needed, probes = _replay(
                cache.get, scenario_name=scenario.name, slo_name=slo.name,
                low=low, high=high, tolerance=tolerance,
                max_probes=max_probes)
            if on_probe is not None:
                for probe in probes[reported:]:
                    on_probe(probe)
            reported = len(probes)
            if result is not None:
                return result
            # Fill the batch beyond the serially-needed rates with the
            # decision tree's frontier from the post-replay bracket.
            rates = [rate for rate in needed if rate not in cache]
            if len(probes) >= 2:
                best = max(p.rate for p in probes if p.passed)
                worst = min(p.rate for p in probes if not p.passed)
                for rate in _speculative_rates(
                        best, worst, len(probes), tolerance=tolerance,
                        max_probes=max_probes, width=width):
                    if rate not in cache and rate not in rates:
                        rates.append(rate)
            elif len(needed) == 2:
                # Initial round: low and high are both unknown; also
                # speculate the tree below (low passes, high fails).
                for rate in _speculative_rates(
                        low, high, 2, tolerance=tolerance,
                        max_probes=max_probes, width=width):
                    if rate not in cache and rate not in rates:
                        rates.append(rate)
            rates = rates[:width]
            assert rates, "speculative search blocked with nothing to probe"
            tasks = [FleetTask(key=f"probe-{batch:03d}-{index:02d}",
                               runner="load.capacity_probe",
                               payload={"scenario": scenario, "slo": slo,
                                        "rate": rate})
                     for index, rate in enumerate(rates)]
            batch += 1
            for outcome in pool.run(tasks).values():
                if outcome.error is not None:
                    raise outcome.error
                probe = _t.cast(CapacityProbe, outcome.result)
                cache[probe.rate] = probe


__all__ = ["CapacityProbe", "CapacityResult", "find_capacity"]
