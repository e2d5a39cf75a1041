"""Declarative SLOs evaluated against a :class:`~repro.load.clients.LoadResult`.

An :class:`SLO` names the budgets a scenario must meet — tail latency,
delivered throughput, drop/retry budgets — and :func:`evaluate` turns a
finished run into an :class:`SLOVerdict`: one
:class:`ObjectiveResult` per configured budget plus an overall
pass/fail.  Objectives read the same :mod:`repro.obs` histograms and
counters the enquiry report is built from, so an SLO never disagrees
with what the observability stack recorded.

Latency quantiles come from fixed-bucket histograms, so a quantile is
the *upper bound* of the bucket the quantile falls in — conservative
(never under-reports the tail) and byte-stable across runs.

The verdict also attaches itself to the run's enquiry report
(``result.report.slo``), which is how SLO outcomes travel inside
:class:`~repro.core.enquiry.EnquiryReport` without the core layer
importing the load tier.

Windowed objectives
-------------------
Aggregate budgets average transients away: a 150 ms outage inside a 2 s
run can leave the whole-run p99 inside budget while every request in
the outage window blew it.  When the run recorded a timeline
(:class:`~repro.obs.timeline.Timeline`, always on for
:func:`~repro.load.clients.run_scenario`), ``window_p99_latency_us``
judges *every* window after ``warmup_windows`` — and the
:class:`WindowedVerdict` additionally reports the saturation onset
(first window of the terminal stretch where delivery stopped keeping up
with offered load) and, for chaos runs, the recovery time: sim-time
from the last fault clearing to the end of the first compliant window.
Windows with no samples are n/a — excluded from violation counting and
reported separately, never conflated with a measured 0.
"""

from __future__ import annotations

import dataclasses
import math
import typing as _t

from ..obs.timeline import KEY_ALL, SERIES_DELIVERED, SERIES_ISSUED, \
    SERIES_LATENCY
from .arrivals import LoadSpecError

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..obs.timeline import Timeline
    from .clients import LoadResult


@dataclasses.dataclass(frozen=True)
class SLO:
    """Budgets a load run must meet.  ``None`` disables an objective.

    Latency budgets are in microseconds against the merged end-to-end
    RSR latency histogram; fractions are relative to offered requests.
    """

    name: str = "default"
    #: Median / tail end-to-end RSR latency budgets (µs).
    p50_latency_us: float | None = None
    p99_latency_us: float | None = None
    mean_latency_us: float | None = None
    #: Minimum delivered/offered fraction (goodput under loss/backlog).
    min_delivered_fraction: float | None = None
    #: Minimum delivered throughput, RSRs per sim-second.
    min_delivered_rate: float | None = None
    #: Minimum delivered rate as a fraction of the *requested* open-loop
    #: rate.  The saturation detector: a client fleet that cannot keep
    #: its arrival schedule (send path blocked) never shows up in
    #: delivered/offered, but it does show up here.
    min_goodput_fraction: float | None = None
    #: Maximum (dropped + abandoned sends) / offered.
    max_drop_fraction: float | None = None
    #: Maximum send-path retries / offered.
    max_retry_fraction: float | None = None
    #: Per-window p99 budget (µs): every timeline window after the
    #: warmup must stay inside it.  Needs a run with a timeline.
    window_p99_latency_us: float | None = None
    #: Leading windows exempt from the windowed budget (cold caches,
    #: TCP connects).
    warmup_windows: int = 0
    #: When False the windowed budget is *detection-only*: the
    #: :class:`WindowedVerdict` still records violations and recovery
    #: time, but they do not gate the aggregate pass/fail — how a chaos
    #: scenario keeps a passing aggregate SLO while the in-outage
    #: violation stays visible.
    enforce_windows: bool = True

    #: Fields that tune evaluation rather than set a budget.
    _CONTROL = ("name", "warmup_windows", "enforce_windows")

    def __post_init__(self) -> None:
        if not self.objectives():
            raise LoadSpecError(f"SLO {self.name!r} sets no objectives")
        for field in ("p50_latency_us", "p99_latency_us", "mean_latency_us",
                      "min_delivered_rate", "window_p99_latency_us"):
            value = getattr(self, field)
            if value is not None and value <= 0:
                raise LoadSpecError(f"SLO {self.name!r}: {field} must be "
                                    f"> 0, got {value!r}")
        for field in ("min_delivered_fraction", "min_goodput_fraction",
                      "max_drop_fraction", "max_retry_fraction"):
            value = getattr(self, field)
            if value is not None and not 0.0 <= value <= 1.0:
                raise LoadSpecError(f"SLO {self.name!r}: {field} must be "
                                    f"in [0, 1], got {value!r}")
        if self.warmup_windows < 0:
            raise LoadSpecError(f"SLO {self.name!r}: warmup_windows must "
                                f"be >= 0, got {self.warmup_windows!r}")

    def objectives(self) -> list[str]:
        """Names of the budgets this SLO actually sets."""
        return [field.name for field in dataclasses.fields(self)
                if field.name not in self._CONTROL
                and getattr(self, field.name) is not None]


@dataclasses.dataclass(frozen=True)
class ObjectiveResult:
    """One budget's outcome: what was required, what was measured."""

    objective: str
    limit: float
    #: Measured value; ``None`` when the run produced no signal to
    #: measure (e.g. latency budget but zero delivered RSRs) — which
    #: counts as a failure, never a silent pass.
    actual: float | None
    passed: bool

    def as_dict(self) -> dict[str, object]:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class WindowedVerdict:
    """Per-window SLO outcome over a run's timeline.

    ``violations`` lists window indices whose measured p99 broke the
    budget; ``empty_windows`` lists post-warmup windows with no samples
    (n/a — reported, never counted as violations or as passes).
    """

    limit_us: float
    interval_s: float
    warmup_windows: int
    window_lo: int
    window_hi: int
    violations: tuple[int, ...]
    empty_windows: tuple[int, ...]
    worst_window: int | None
    worst_p99_us: float | None
    passed: bool
    #: First window of the terminal saturated stretch (delivery no
    #: longer keeping up with offered load), or None.
    saturation_onset_window: int | None = None
    #: Sim-time of the last fault clearing (restore / clear_flaky).
    fault_clear_s: float | None = None
    #: Sim-time from fault clearing to the end of the first compliant
    #: (non-empty, in-budget) window at or after it; None when the run
    #: had no fault clearing or never got back inside budget.
    recovery_time_s: float | None = None

    def as_dict(self) -> dict[str, object]:
        return dataclasses.asdict(self)

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        parts = [f"{len(self.violations)} of "
                 f"{self.window_hi - self.window_lo + 1} windows over "
                 f"{self.limit_us:.4g} us"]
        if self.worst_p99_us is not None:
            parts.append(f"worst p99 {self.worst_p99_us:.4g} us "
                         f"@ window {self.worst_window}")
        if self.empty_windows:
            parts.append(f"{len(self.empty_windows)} empty (n/a)")
        if self.saturation_onset_window is not None:
            parts.append(f"saturates @ window "
                         f"{self.saturation_onset_window}")
        if self.recovery_time_s is not None:
            parts.append(f"recovery {self.recovery_time_s * 1e3:.4g} ms")
        return f"[{verdict} windows] " + "; ".join(parts)


@dataclasses.dataclass(frozen=True)
class SLOVerdict:
    """The full pass/fail picture for one run against one SLO."""

    slo: str
    scenario: str
    passed: bool
    objectives: tuple[ObjectiveResult, ...]
    #: Per-window outcome, when the SLO set a windowed budget and the
    #: run carried a timeline.
    windowed: WindowedVerdict | None = None

    def as_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "slo": self.slo,
            "scenario": self.scenario,
            "passed": self.passed,
            "objectives": [o.as_dict() for o in self.objectives],
        }
        if self.windowed is not None:
            out["windowed"] = self.windowed.as_dict()
        return out

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        parts = []
        for o in self.objectives:
            mark = "ok" if o.passed else "VIOLATED"
            actual = "n/a" if o.actual is None else f"{o.actual:.4g}"
            parts.append(f"{o.objective}={actual} (limit {o.limit:.4g}, "
                         f"{mark})")
        line = f"[{verdict}] {self.slo} on {self.scenario}: " + "; ".join(
            parts)
        if self.windowed is not None:
            line += "\n  " + self.windowed.summary()
        return line


def _upper(actual: float | None, limit: float) -> bool:
    """Budget is an upper bound; missing signal fails."""
    return actual is not None and actual <= limit


def _lower(actual: float | None, limit: float) -> bool:
    return actual is not None and actual >= limit


def saturation_onset(issued: _t.Sequence[float],
                     delivered: _t.Sequence[float], *,
                     min_fraction: float = 0.9) -> int | None:
    """First index of the *terminal* saturated stretch, or None.

    A window is saturated when deliveries fall below ``min_fraction`` of
    the RSRs issued in it.  A transient dip that the system catches up
    from does not count — only a saturation the run never recovers from
    (the capacity knee the load tier bisects for)."""
    onset: int | None = None
    for index, (offered, served) in enumerate(zip(issued, delivered)):
        if offered > 0 and served < min_fraction * offered:
            if onset is None:
                onset = index
        else:
            onset = None
    return onset


def _last_fault_clear(fault_log: _t.Sequence[tuple[float, str, str]]
                      ) -> float | None:
    clears = [when for when, action, _detail in fault_log
              if action in ("restore", "clear_flaky")]
    return max(clears) if clears else None


def evaluate_windows(result: "LoadResult", slo: SLO) -> WindowedVerdict | None:
    """Judge every timeline window after warmup against the windowed
    budget; returns None when the SLO sets no windowed budget or the
    run recorded no timeline."""
    limit = slo.window_p99_latency_us
    timeline: "Timeline | None" = result.timeline
    if limit is None or timeline is None:
        return None
    window_range = timeline.window_range()
    lo, hi = window_range if window_range is not None else (0, -1)
    p99s = timeline.quantile_series(SERIES_LATENCY, KEY_ALL, 0.99,
                                    lo=lo, hi=hi)
    violations: list[int] = []
    empty: list[int] = []
    worst: tuple[float, int] | None = None
    for offset, p99 in enumerate(p99s):
        window = lo + offset
        if window < slo.warmup_windows:
            continue
        if p99 is None:
            empty.append(window)
            continue
        if p99 > limit:
            violations.append(window)
        if worst is None or p99 > worst[0]:
            worst = (p99, window)

    issued = timeline.counter_series(SERIES_ISSUED, KEY_ALL, lo=lo, hi=hi)
    delivered = timeline.counter_total_series(
        SERIES_DELIVERED, prefix="method=", lo=lo, hi=hi)
    skip = max(slo.warmup_windows - lo, 0)
    onset = saturation_onset(issued[skip:], delivered[skip:])
    if onset is not None:
        onset += lo + skip

    clear = _last_fault_clear(result.fault_log)
    recovery: float | None = None
    if clear is not None:
        first_full = math.ceil(clear / timeline.interval - 1e-9)
        for offset, p99 in enumerate(p99s):
            window = lo + offset
            if window < first_full or p99 is None:
                continue
            if p99 <= limit:
                recovery = timeline.window_end(window) - clear
                break

    return WindowedVerdict(
        limit_us=limit,
        interval_s=timeline.interval,
        warmup_windows=slo.warmup_windows,
        window_lo=lo,
        window_hi=hi,
        violations=tuple(violations),
        empty_windows=tuple(empty),
        worst_window=None if worst is None else worst[1],
        worst_p99_us=None if worst is None else worst[0],
        passed=not violations,
        saturation_onset_window=onset,
        fault_clear_s=clear,
        recovery_time_s=recovery,
    )


def evaluate(result: "LoadResult", slo: SLO) -> SLOVerdict:
    """Judge ``result`` against ``slo`` and attach the verdict.

    Returns the verdict; as a side effect the run's enquiry report is
    replaced with a copy carrying the verdict (``result.report.slo``).
    """
    offered = result.offered
    send_failures = sum(f.send_failures for f in result.fleets.values())
    checks: list[tuple[str, float, float | None,
                       _t.Callable[[float | None, float], bool]]] = []

    if slo.p50_latency_us is not None:
        checks.append(("p50_latency_us", slo.p50_latency_us,
                       result.quantile_us(0.5), _upper))
    if slo.p99_latency_us is not None:
        checks.append(("p99_latency_us", slo.p99_latency_us,
                       result.quantile_us(0.99), _upper))
    if slo.mean_latency_us is not None:
        checks.append(("mean_latency_us", slo.mean_latency_us,
                       result.latency.mean, _upper))
    if slo.min_delivered_fraction is not None:
        fraction = result.delivered / offered if offered else None
        checks.append(("min_delivered_fraction",
                       slo.min_delivered_fraction, fraction, _lower))
    if slo.min_delivered_rate is not None:
        checks.append(("min_delivered_rate", slo.min_delivered_rate,
                       result.delivered_rate, _lower))
    if slo.min_goodput_fraction is not None:
        requested = result.scenario.open_rate
        delivered_open = sum(f.delivered for f in result.fleets.values()
                             if not f.closed)
        fraction = (delivered_open / result.elapsed / requested
                    if requested else None)
        checks.append(("min_goodput_fraction", slo.min_goodput_fraction,
                       fraction, _lower))
    if slo.max_drop_fraction is not None:
        fraction = ((result.messages_dropped + send_failures) / offered
                    if offered else None)
        checks.append(("max_drop_fraction", slo.max_drop_fraction,
                       fraction, _upper))
    if slo.max_retry_fraction is not None:
        fraction = result.retries / offered if offered else None
        checks.append(("max_retry_fraction", slo.max_retry_fraction,
                       fraction, _upper))

    windowed = evaluate_windows(result, slo)
    if windowed is not None and slo.enforce_windows:
        # The gating objective keeps the house rule — a run that
        # measured nothing fails; the verdict itself stays descriptive.
        checks.append(("window_p99_latency_us",
                       _t.cast(float, slo.window_p99_latency_us),
                       windowed.worst_p99_us,
                       lambda actual, _limit: (actual is not None
                                               and windowed.passed)))

    objectives = tuple(
        ObjectiveResult(objective=name, limit=limit, actual=actual,
                        passed=check(actual, limit))
        for name, limit, actual, check in checks)
    verdict = SLOVerdict(
        slo=slo.name,
        scenario=result.scenario.name,
        passed=all(o.passed for o in objectives),
        objectives=objectives,
        windowed=windowed,
    )
    result.report = result.report.with_slo(verdict.as_dict())
    return verdict


__all__ = ["ObjectiveResult", "SLO", "SLOVerdict", "WindowedVerdict",
           "evaluate", "evaluate_windows", "saturation_onset"]
