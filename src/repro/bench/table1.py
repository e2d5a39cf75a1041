"""Table 1: coupled-model execution time per timestep.

"Time spent in communication between models and total execution time for
the coupled model.  Times are in seconds per timestep on 24 processors."

Rows: Selective TCP; Forwarding; skip poll 1 / 100 / 10000 / 12000 /
13000 — plus two rows the text describes but the table omits: the
all-TCP (no multimethod) configuration ("an order of magnitude greater
than the worst multimethod time") and a very large skip_poll (100000)
that makes the detection-latency rise unmistakable.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..apps.climate import ClimateConfig, ClimateMode, ClimateResult
from ..apps.climate.model import run_coupled_model
from ..util.records import ResultTable
from . import Artefact, RunOptions
from .record import KIND_COUNT, Metric, slug

#: The paper's skip_poll rows.
PAPER_SKIPS = (1, 100, 10_000, 12_000, 13_000)
#: Extra sweep point exhibiting the large-skip detection penalty.
EXTRA_SKIPS = (100_000,)

#: The paper's measurements (seconds/timestep), for side-by-side report.
PAPER_VALUES = {
    "Selective TCP": 104.9,
    "Forwarding": 109.3,
    "skip poll 1": 109.1,
    "skip poll 100": 107.8,
    "skip poll 10000": 105.4,
    "skip poll 12000": 105.0,
    "skip poll 13000": 108.3,
}


@dataclasses.dataclass
class Table1:
    """All rows of the regenerated table."""

    results: dict[str, ClimateResult]
    config: ClimateConfig

    def value(self, label: str) -> float:
        return self.results[label].seconds_per_step

    def as_table(self) -> ResultTable:
        table = ResultTable(
            "Table 1: coupled model, seconds per timestep on "
            f"{self.config.total_ranks} processors",
            ["measured s/step", "coupling wait s", "paper s/step"],
        )
        for label, result in self.results.items():
            table.add(label, result.seconds_per_step, result.coupling_wait,
                      PAPER_VALUES.get(label, float("nan")))
        return table

    def render(self) -> str:
        return self.as_table().render()

    def metrics(self) -> _t.Iterator[Metric]:
        """Seconds/step, coupling wait, and sim-event count per row."""
        for label in sorted(self.results):
            result = self.results[label]
            base = slug(label)
            yield Metric(f"{base}.seconds_per_step",
                         result.seconds_per_step, unit="s")
            yield Metric(f"{base}.coupling_wait_s", result.coupling_wait,
                         unit="s")
            yield Metric(f"{base}.sim_events", result.events_processed,
                         unit="events", kind=KIND_COUNT)


def table1(config: ClimateConfig | None = None,
           skips: _t.Sequence[int] = PAPER_SKIPS + EXTRA_SKIPS,
           include_all_tcp: bool = True,
           include_adaptive: bool = True) -> Table1:
    """Regenerate Table 1 (plus the all-TCP baseline and the adaptive
    skip_poll row — the paper's Section 6 future work, measured)."""
    cfg = config or ClimateConfig(steps=6)
    results: dict[str, ClimateResult] = {}

    result = run_coupled_model(cfg, ClimateMode.SELECTIVE)
    results[result.label] = result
    result = run_coupled_model(cfg, ClimateMode.FORWARDING)
    results[result.label] = result
    for skip in skips:
        result = run_coupled_model(cfg, ClimateMode.SKIP_POLL,
                                   skip_poll=skip)
        results[result.label] = result
    if include_adaptive:
        result = run_coupled_model(cfg, ClimateMode.ADAPTIVE)
        results[result.label] = result
    if include_all_tcp:
        result = run_coupled_model(cfg, ClimateMode.ALL_TCP)
        results[result.label] = result
    return Table1(results=results, config=cfg)


def check_table1_shape(table: Table1) -> None:
    """Assert the qualitative findings of Section 4.

    1. Selective TCP is the best case (row 1 of the paper's table).
    2. skip_poll trades select overhead against detection latency:
       ``t(1) > t(100) > t(10000)`` (overhead-dominated region), then
       ``t`` rises again — ``t(12000) <= t(13000)`` and
       ``t(100000) > t(10000)`` (detection-dominated region) — so the
       optimum is interior, which is the paper's central claim.
    3. Well-tuned polling beats forwarding (the paper's headline:
       "the performance of the polling implementation can exceed that of
       TCP forwarding"), while forwarding roughly tracks skip_poll 1
       (the forwarder node still pays the full poll tax and the models
       synchronise on it).
    4. The all-TCP configuration is several times worse than the worst
       multimethod configuration (the paper reports an order of
       magnitude; our substrate reproduces >=4x — see EXPERIMENTS.md).
    """
    t = table.value
    selective = t("Selective TCP")
    for label, result in table.results.items():
        if result.mode is not ClimateMode.SELECTIVE:
            assert selective <= t(label) * 1.0001, (
                f"selective TCP should be the best case, but {label} beat it")

    assert t("skip poll 1") > t("skip poll 100") > t("skip poll 10000"), (
        "select-overhead region of the skip sweep is not decreasing")
    assert t("skip poll 12000") <= t("skip poll 13000") * 1.001, (
        "the paper's 12000->13000 degradation did not reproduce")
    assert t("skip poll 100000") > t("skip poll 10000"), (
        "detection-latency region of the skip sweep is not rising")

    tuned = min(t(f"skip poll {k}") for k in (10_000, 12_000))
    assert tuned < t("Forwarding"), (
        "tuned polling should beat the forwarding processor")
    assert t("Forwarding") < t("skip poll 1") * 1.02, (
        "forwarding should roughly track skip_poll 1 (it pays the same "
        "poll tax on the forwarder node)")

    if "adaptive skip poll" in table.results:
        # The Section 6 extension: the online controller must land within
        # a few percent of the best static setting, untouched by hand.
        assert t("adaptive skip poll") <= tuned * 1.05, (
            "adaptive skip_poll strayed from the tuned optimum")
        assert t("adaptive skip poll") < t("skip poll 1"), (
            "adaptive skip_poll failed to improve on untuned polling")

    if "all TCP (no multimethod)" in table.results:
        worst_multi = max(v.seconds_per_step
                          for k, v in table.results.items()
                          if k != "all TCP (no multimethod)")
        assert t("all TCP (no multimethod)") >= 4.0 * worst_multi, (
            "all-TCP should be several times worse than any multimethod "
            "configuration")


def _run(options: RunOptions) -> Table1:
    config = (dataclasses.replace(ClimateConfig(), steps=2)
              if options.quick else None)
    return table1(config=config)


ARTEFACT = Artefact("table1", _run, check_table1_shape)
