"""Machine-readable benchmark records and the baseline regression gate.

Every artefact driver prints human tables; this module gives the same
numbers a durable, diffable form.  A :class:`BenchRecord` is a
schema-versioned document of scalar metrics, each named by the artefact
result that yields it (``metrics()``) and tagged with a *kind* (``sim``
virtual-time, ``count``, or ``wall`` clock) and a *direction*
(lower/higher is better, or none) — plus an environment fingerprint
(python version, platform, git SHA).  Serialisation is sorted-key JSON;
everything except ``wall`` metrics is deterministic, so two identical
runs write byte-identical ``BENCH_<label>.json`` files (``wall`` metrics
are excluded unless explicitly requested).

:func:`compare_records` is the regression gate: it diffs a current
record against a stored baseline with per-kind tolerance bands — tight
for deterministic ``sim`` metrics, looser for ``count`` drift, and
advisory-only for ``wall`` clock — and renders a readable diff table.
``python -m repro.bench --baseline BASE.json --check`` exits non-zero
when any gated metric regresses.
"""

from __future__ import annotations

import dataclasses
import math
import platform
import re
import subprocess
import sys
import typing as _t

from ..util.document import DocumentError, Schema, load, write
from ..util.records import ResultTable

#: Document identity; bump the version on any breaking layout change.
SCHEMA = "repro.bench.record"
SCHEMA_VERSION = 2

#: Deterministic virtual-time measurement (gated tightly).
KIND_SIM = "sim"
#: Deterministic count (events, bytes, spans; gated loosely).
KIND_COUNT = "count"
#: Wall-clock measurement (advisory only — never gates).
KIND_WALL = "wall"
KINDS = (KIND_SIM, KIND_COUNT, KIND_WALL)

DIR_LOWER = "lower_is_better"
DIR_HIGHER = "higher_is_better"
DIR_NONE = "none"
DIRECTIONS = (DIR_LOWER, DIR_HIGHER, DIR_NONE)

#: Default gate tolerances per kind (relative).
SIM_TOLERANCE = 0.01
COUNT_TOLERANCE = 0.10

_SLUG_RE = re.compile(r"[^A-Za-z0-9_.+=-]+")


def slug(text: str) -> str:
    """A metric-name-safe slug: word characters plus ``. _ + = -``."""
    return _SLUG_RE.sub("_", text.strip()).strip("_")


@dataclasses.dataclass(frozen=True)
class Metric:
    """One named scalar, as a result's ``metrics()`` yields it.

    ``direction=None`` takes the kind's default: none for counts,
    lower-is-better otherwise.
    """

    name: str
    value: float
    unit: str = ""
    kind: str = KIND_SIM
    direction: str | None = None

    def to_json(self) -> dict[str, object]:
        return {"value": self.value, "unit": self.unit, "kind": self.kind,
                "direction": self.direction}


def git_sha() -> str:
    """The current checkout's commit id, or ``"unknown"`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, check=False)
    except OSError:
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def environment_fingerprint() -> dict[str, str]:
    """Where this record came from (stable within one checkout+machine)."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "git_sha": git_sha(),
    }


class BenchRecord:
    """An accumulating document of benchmark metrics.

    Each artefact's result yields its own scalars (``metrics()``) and
    :meth:`extend` files them; ``python -m repro.bench --record PATH``
    writes the document out.
    """

    def __init__(self, label: str = "adhoc"):
        self.label = label
        self.environment = environment_fingerprint()
        self._artefacts: dict[str, dict[str, Metric]] = {}

    def add(self, artefact: str, name: str, value: float, *,
            unit: str = "", kind: str = KIND_SIM,
            direction: str | None = None) -> None:
        """Record one scalar under ``artefact.name``.

        Re-recording an existing name is an error — records are
        append-only so a typo cannot silently overwrite a metric.
        """
        if kind not in KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"metric {artefact}.{name} is not finite: "
                             f"{value!r}")
        if direction is None:
            direction = DIR_NONE if kind == KIND_COUNT else DIR_LOWER
        if direction not in DIRECTIONS:
            raise ValueError(f"unknown metric direction {direction!r}")
        metrics = self._artefacts.setdefault(slug(artefact), {})
        key = slug(name)
        if key in metrics:
            raise ValueError(f"metric {artefact}.{key} recorded twice")
        metrics[key] = Metric(name=key, value=value, unit=unit, kind=kind,
                              direction=direction)

    def extend(self, artefact: str, metrics: _t.Iterable[Metric]) -> None:
        """:meth:`add` every metric a result yields."""
        for metric in metrics:
            self.add(artefact, metric.name, metric.value, unit=metric.unit,
                     kind=metric.kind, direction=metric.direction)

    def metrics(self, artefact: str) -> dict[str, Metric]:
        return dict(self._artefacts.get(slug(artefact), {}))

    def __len__(self) -> int:
        return sum(len(m) for m in self._artefacts.values())

    def to_document(self, *, include_wall: bool = False
                    ) -> dict[str, object]:
        """The JSON-ready document.

        ``wall`` metrics are non-deterministic, so they are left out
        unless ``include_wall=True`` — the default document is
        byte-identical across repeated runs of the same code.
        """
        artefacts: dict[str, object] = {}
        for artefact in sorted(self._artefacts):
            metrics = {
                name: metric.to_json()
                for name, metric in sorted(self._artefacts[artefact].items())
                if include_wall or metric.kind != KIND_WALL
            }
            if metrics:
                artefacts[artefact] = {"metrics": metrics}
        return {
            "schema": SCHEMA,
            "schema_version": SCHEMA_VERSION,
            "label": self.label,
            "environment": dict(self.environment),
            "artefacts": artefacts,
        }

    def write(self, path: str, *, include_wall: bool = False) -> None:
        write(path, self.to_document(include_wall=include_wall), indent=1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<BenchRecord {self.label!r} artefacts="
                f"{len(self._artefacts)} metrics={len(self)}>")


# -- document validation -----------------------------------------------------

def _check(condition: bool, reason: str) -> None:
    if not condition:
        raise DocumentError(reason)


def _validate(doc: _t.Mapping[str, _t.Any],
              path: str | None = None) -> dict[str, object]:
    """Validate one record document; returns summary statistics.

    A record carrying a ``load`` artefact must also pass the load
    tier's own checks (:func:`repro.bench.load.validate_load_record`).
    """
    _check(isinstance(doc.get("label"), str), "label must be a string")
    environment = doc.get("environment")
    _check(isinstance(environment, dict), "environment section missing")
    for field in ("python", "platform", "machine", "git_sha"):
        _check(isinstance(_t.cast(dict, environment).get(field), str),
               f"environment.{field} missing")
    artefacts = doc.get("artefacts")
    _check(isinstance(artefacts, dict), "artefacts section missing")
    metric_count = 0
    for artefact, body in _t.cast(dict, artefacts).items():
        _check(isinstance(body, dict)
               and isinstance(body.get("metrics"), dict),
               f"artefact {artefact!r} lacks a metrics object")
        for name, metric in body["metrics"].items():
            where = f"{artefact}.{name}"
            _check(isinstance(metric, dict), f"{where} is not an object")
            value = metric.get("value")
            _check(isinstance(value, (int, float)) and math.isfinite(value),
                   f"{where}.value must be a finite number")
            _check(metric.get("kind") in KINDS,
                   f"{where}.kind invalid: {metric.get('kind')!r}")
            _check(metric.get("direction") in DIRECTIONS,
                   f"{where}.direction invalid: {metric.get('direction')!r}")
            _check(isinstance(metric.get("unit"), str),
                   f"{where}.unit must be a string")
            metric_count += 1
    summary: dict[str, object] = {
        "artefacts": len(_t.cast(dict, artefacts)),
        "metrics": metric_count}
    if "load" in _t.cast(dict, artefacts):
        from .load import validate_load_record  # it imports Metric from here
        summary.update(validate_load_record(doc))
    return summary


def load_record(path: str) -> dict[str, object]:
    """Load and validate a record file."""
    return load(path, SCHEMA)


# -- regression gate ---------------------------------------------------------

STATUS_OK = "ok"
STATUS_REGRESSED = "regressed"
STATUS_IMPROVED = "improved"
STATUS_CHANGED = "changed"          # direction-less gated metric drifted
STATUS_MISSING = "missing"          # in baseline, absent from current
STATUS_NEW = "new"                  # in current, absent from baseline
STATUS_WALL = "wall (advisory)"


@dataclasses.dataclass(frozen=True)
class MetricDiff:
    """One metric's baseline-vs-current comparison."""

    artefact: str
    name: str
    baseline: float | None
    current: float | None
    kind: str
    direction: str
    rel_change: float | None
    status: str

    @property
    def gates(self) -> bool:
        """Does this diff fail the gate?"""
        return self.status in (STATUS_REGRESSED, STATUS_CHANGED,
                               STATUS_MISSING)

    @property
    def label(self) -> str:
        return f"{self.artefact}.{self.name}"


@dataclasses.dataclass
class ComparisonResult:
    """Everything the gate learned from one baseline/current diff."""

    diffs: list[MetricDiff]
    warnings: list[str]

    @property
    def regressions(self) -> list[MetricDiff]:
        return [diff for diff in self.diffs if diff.gates]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self, *, show_ok: bool = False) -> str:
        """The diff table plus a one-line verdict."""
        rows = [diff for diff in self.diffs
                if show_ok or diff.status != STATUS_OK]
        lines = list(self.warnings)
        if rows:
            table = ResultTable("regression gate: current vs baseline",
                                ["baseline", "current", "delta %"])
            for diff in rows:
                table.add(
                    diff.label,
                    float("nan") if diff.baseline is None else diff.baseline,
                    float("nan") if diff.current is None else diff.current,
                    (float("nan") if diff.rel_change is None
                     else 100.0 * diff.rel_change),
                    note=diff.status,
                )
            lines.append(table.render(precision=3))
        compared = sum(1 for d in self.diffs
                       if d.status not in (STATUS_MISSING, STATUS_NEW))
        verdict = (f"gate: {compared} metrics compared, "
                   f"{len(self.regressions)} regression(s)")
        if self.ok:
            verdict += " — OK"
        lines.append(verdict)
        return "\n".join(lines)


def _flat_metrics(document: dict[str, object]
                  ) -> dict[tuple[str, str], dict[str, object]]:
    flat: dict[tuple[str, str], dict[str, object]] = {}
    for artefact, body in _t.cast(dict, document["artefacts"]).items():
        for name, metric in body["metrics"].items():
            flat[(artefact, name)] = metric
    return flat


def _diff_one(artefact: str, name: str, base: dict[str, object],
              cur: dict[str, object], sim_tolerance: float,
              count_tolerance: float) -> MetricDiff:
    base_value = _t.cast(float, base["value"])
    cur_value = _t.cast(float, cur["value"])
    kind = _t.cast(str, cur.get("kind", base.get("kind", KIND_SIM)))
    direction = _t.cast(str, cur.get("direction",
                                     base.get("direction", DIR_NONE)))
    if base_value == 0.0:
        rel = 0.0 if cur_value == 0.0 else math.copysign(math.inf, cur_value)
    else:
        rel = (cur_value - base_value) / abs(base_value)

    if kind == KIND_WALL:
        status = STATUS_WALL if rel != 0.0 else STATUS_OK
    else:
        tolerance = (count_tolerance if kind == KIND_COUNT
                     else sim_tolerance)
        if direction == DIR_LOWER:
            status = (STATUS_REGRESSED if rel > tolerance
                      else STATUS_IMPROVED if rel < -tolerance
                      else STATUS_OK)
        elif direction == DIR_HIGHER:
            status = (STATUS_REGRESSED if rel < -tolerance
                      else STATUS_IMPROVED if rel > tolerance
                      else STATUS_OK)
        else:
            status = STATUS_CHANGED if abs(rel) > tolerance else STATUS_OK
    return MetricDiff(artefact=artefact, name=name, baseline=base_value,
                      current=cur_value, kind=kind, direction=direction,
                      rel_change=rel, status=status)


def compare_records(baseline: dict[str, object], current: dict[str, object],
                    *, sim_tolerance: float = SIM_TOLERANCE,
                    count_tolerance: float = COUNT_TOLERANCE
                    ) -> ComparisonResult:
    """Diff ``current`` against ``baseline`` with per-kind tolerances.

    Gate semantics:

    * ``sim`` metrics regress when they move past ``sim_tolerance`` in
      the bad direction (they are deterministic, so any real movement is
      a code change);
    * ``count`` metrics (event/span/byte counts) gate at the looser
      ``count_tolerance`` in either direction — drift means behaviour
      changed;
    * ``wall`` metrics never gate: a moved one is an advisory row, and
      one missing from the current record is not even that (a record
      written without wall timings is a subset of one written with
      them, not a regression);
    * a metric present in the baseline but missing from the current
      record is a regression; artefacts that were not run at all are
      skipped with a warning (so subset runs stay useful);
    * ``trace.*`` metrics describe the traced run, not the artefact: a
      current record with none at all (no ``--trace``, or ``--jobs``
      above 1) is an untraced run, and the baseline's are not missing
      from it.
    """
    warnings: list[str] = []

    base_flat = _flat_metrics(baseline)
    cur_flat = _flat_metrics(current)
    cur_artefacts = {artefact for artefact, _name in cur_flat}
    traced = any(name.startswith("trace.") for _artefact, name in cur_flat)
    skipped = sorted({artefact for artefact, _name in base_flat}
                     - cur_artefacts)
    if skipped:
        warnings.append("warning: baseline artefacts not in this run "
                        f"(skipped): {', '.join(skipped)}")

    diffs: list[MetricDiff] = []
    for key in sorted(set(base_flat) | set(cur_flat)):
        artefact, name = key
        base = base_flat.get(key)
        cur = cur_flat.get(key)
        if base is None:
            assert cur is not None
            diffs.append(MetricDiff(
                artefact=artefact, name=name, baseline=None,
                current=_t.cast(float, cur["value"]),
                kind=_t.cast(str, cur["kind"]),
                direction=_t.cast(str, cur["direction"]),
                rel_change=None, status=STATUS_NEW))
        elif cur is None:
            if (artefact in cur_artefacts
                    and _t.cast(str, base.get("kind")) != KIND_WALL
                    and (traced or not name.startswith("trace."))):
                diffs.append(MetricDiff(
                    artefact=artefact, name=name,
                    baseline=_t.cast(float, base["value"]), current=None,
                    kind=_t.cast(str, base["kind"]),
                    direction=_t.cast(str, base["direction"]),
                    rel_change=None, status=STATUS_MISSING))
        else:
            diffs.append(_diff_one(
                artefact, name, base, cur, sim_tolerance, count_tolerance))
    return ComparisonResult(diffs=diffs, warnings=warnings)


DOCUMENT = Schema(SCHEMA, SCHEMA_VERSION, _validate, "bench record")


__all__ = [
    "BenchRecord",
    "COUNT_TOLERANCE",
    "ComparisonResult",
    "DIRECTIONS",
    "DIR_HIGHER",
    "DIR_LOWER",
    "DIR_NONE",
    "DOCUMENT",
    "KINDS",
    "KIND_COUNT",
    "KIND_SIM",
    "KIND_WALL",
    "Metric",
    "MetricDiff",
    "SCHEMA",
    "SCHEMA_VERSION",
    "SIM_TOLERANCE",
    "compare_records",
    "environment_fingerprint",
    "git_sha",
    "load_record",
    "slug",
]
