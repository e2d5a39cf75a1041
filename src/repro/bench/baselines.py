"""Prior art vs multimethod Nexus (Section 5) on one mixed workload.

p4-style (two methods hard-coded, both always polled) and PVM-style (a
forwarding daemon for external traffic) against Nexus at ``skip_poll``
1 and 20; see :mod:`repro.baselines` for the systems themselves.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..baselines import run_mixed_workload
from ..util.records import ResultTable
from . import Artefact, RunOptions
from .record import Metric, slug


@dataclasses.dataclass(frozen=True)
class Baselines:
    """Mixed-workload results, keyed by the row label."""

    results: _t.Mapping[str, _t.Any]

    def render(self) -> str:
        table = ResultTable("Prior art vs multimethod Nexus", ["ms/round"])
        for label, result in self.results.items():
            table.add(label, result.time_per_round * 1e3)
        return table.render()

    def metrics(self) -> _t.Iterator[Metric]:
        for label in sorted(self.results):
            yield Metric(f"{slug(label)}.ms_per_round",
                         self.results[label].time_per_round * 1e3,
                         unit="ms")


def _run(options: RunOptions) -> Baselines:
    results = {
        "p4 (hard-coded)": run_mixed_workload("p4"),
        "pvm (daemon relay)": run_mixed_workload("pvm"),
    }
    for skip in (1, 20):
        results[f"nexus skip_poll={skip}"] = run_mixed_workload(
            "nexus", skip_poll=skip)
    return Baselines(results)


def check_baselines_shape(result: Baselines) -> None:
    """Assert Section 5's structural expectations.

    Keyed on each row's own ``system``/``skip_poll`` (labels are the
    caller's): untuned Nexus costs what p4 does (same architecture,
    within 5 %); *tuned* Nexus beats p4 — the knob p4 lacks buys real
    time; PVM's mandatory relay is the slowest path for this mix.
    """
    rows = list(result.results.values())
    (p4,) = (row.time_per_round for row in rows if row.system == "p4")
    (pvm,) = (row.time_per_round for row in rows if row.system == "pvm")
    nexus = {row.skip_poll: row.time_per_round
             for row in rows if row.system == "nexus"}
    untuned = nexus.pop(1)
    tuned = min(nexus.values())
    assert abs(untuned - p4) / p4 < 0.05
    assert tuned < p4 * 0.99
    assert pvm > p4
    assert pvm > tuned


ARTEFACT = Artefact("baselines", _run, check_baselines_shape)
