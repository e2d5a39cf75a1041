"""SLO declaration, evaluation, and report attachment."""

import pytest

from repro.load import (
    FixedSize,
    FleetSpec,
    LoadScenario,
    LoadSpecError,
    OpenLoop,
    SLO,
    evaluate,
    run_scenario,
)


@pytest.fixture(scope="module")
def result():
    scenario = LoadScenario(
        name="slo-run",
        fleets=(FleetSpec("rpc", clients=4, arrival=OpenLoop(rate=50.0),
                          sizes=FixedSize(2048), route="remote"),),
        duration=0.2)
    return run_scenario(scenario)


class TestSLOSpec:
    def test_requires_at_least_one_objective(self):
        with pytest.raises(LoadSpecError):
            SLO(name="empty")

    def test_rejects_nonpositive_latency_budget(self):
        with pytest.raises(LoadSpecError):
            SLO(p99_latency_us=0.0)

    def test_rejects_fraction_out_of_range(self):
        with pytest.raises(LoadSpecError):
            SLO(max_drop_fraction=1.5)
        with pytest.raises(LoadSpecError):
            SLO(min_goodput_fraction=-0.1)

    def test_objectives_lists_configured_budgets(self):
        slo = SLO(p99_latency_us=1000.0, max_drop_fraction=0.01)
        assert set(slo.objectives()) == {"p99_latency_us",
                                         "max_drop_fraction"}


class TestEvaluate:
    def test_generous_budgets_pass(self, result):
        verdict = evaluate(result, SLO(name="easy",
                                       p99_latency_us=1e7,
                                       min_delivered_fraction=0.5,
                                       max_drop_fraction=0.5,
                                       max_retry_fraction=0.5))
        assert verdict.passed
        assert all(o.passed for o in verdict.objectives)

    def test_impossible_latency_budget_fails(self, result):
        verdict = evaluate(result, SLO(name="harsh", p50_latency_us=0.5))
        assert not verdict.passed
        failed = [o for o in verdict.objectives if not o.passed]
        assert [o.objective for o in failed] == ["p50_latency_us"]
        assert failed[0].actual is not None
        assert failed[0].actual > 0.5

    def test_goodput_detects_healthy_run(self, result):
        verdict = evaluate(result, SLO(min_goodput_fraction=0.8))
        assert verdict.passed

    def test_verdict_attaches_to_report(self, result):
        verdict = evaluate(result, SLO(name="attach", p99_latency_us=1e7))
        assert result.report.slo is not None
        assert result.report.slo["slo"] == "attach"
        assert result.report.slo["passed"] == verdict.passed
        assert result.report.slo == verdict.as_dict()

    def test_summary_marks_violations(self, result):
        verdict = evaluate(result, SLO(p50_latency_us=0.5))
        assert "FAIL" in verdict.summary()
        assert "VIOLATED" in verdict.summary()

    def test_quantile_budget_is_conservative(self, result):
        # A budget exactly at the measured quantile passes (bucket upper
        # bound semantics: actual == bucket bound).
        p99 = result.quantile_us(0.99)
        verdict = evaluate(result, SLO(p99_latency_us=p99))
        assert verdict.passed

    def test_missing_signal_fails_not_passes(self, result):
        # min_delivered_rate against a result is fine; craft the missing
        # case instead via ObjectiveResult semantics on a zero-offered
        # scenario: latency budget with empty histogram.
        from repro.load.slo import ObjectiveResult, _upper

        assert not _upper(None, 100.0)
        missing = ObjectiveResult(objective="p99_latency_us", limit=1.0,
                                  actual=None, passed=False)
        assert not missing.passed
