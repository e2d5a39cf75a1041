"""Integration tests for the coupled climate model driver (Table 1)."""

import dataclasses

import pytest

from repro.apps.climate import (
    TEST_CONFIG,
    ClimateMode,
    run_coupled_model,
)


@pytest.fixture(scope="module")
def quick_results():
    """Run the small test configuration once per mode."""
    results = {}
    results["selective"] = run_coupled_model(TEST_CONFIG,
                                             ClimateMode.SELECTIVE)
    results["forwarding"] = run_coupled_model(TEST_CONFIG,
                                              ClimateMode.FORWARDING)
    results["skip1"] = run_coupled_model(TEST_CONFIG, ClimateMode.SKIP_POLL,
                                         skip_poll=1)
    results["skip100"] = run_coupled_model(TEST_CONFIG,
                                           ClimateMode.SKIP_POLL,
                                           skip_poll=100)
    results["all_tcp"] = run_coupled_model(TEST_CONFIG, ClimateMode.ALL_TCP)
    return results


class TestCorrectness:
    def test_model_state_identical_across_modes(self, quick_results):
        """Communication configuration must not change the physics."""
        checksums = {(round(r.atmo_checksum, 9), round(r.ocean_checksum, 9))
                     for r in quick_results.values()}
        assert len(checksums) == 1

    def test_deterministic_rerun(self):
        a = run_coupled_model(TEST_CONFIG, ClimateMode.SKIP_POLL,
                              skip_poll=10)
        b = run_coupled_model(TEST_CONFIG, ClimateMode.SKIP_POLL,
                              skip_poll=10)
        assert a.total_time == b.total_time
        assert a.atmo_checksum == b.atmo_checksum

    def test_all_steps_complete(self, quick_results):
        result = quick_results["selective"]
        assert result.total_time > 0
        assert result.seconds_per_step == pytest.approx(
            result.total_time / TEST_CONFIG.steps)


class TestPerformanceShape:
    def test_selective_is_fastest(self, quick_results):
        best = quick_results["selective"].seconds_per_step
        for key, result in quick_results.items():
            if key != "selective":
                assert result.seconds_per_step >= best * 0.9999

    def test_skip_reduces_select_tax(self, quick_results):
        assert (quick_results["skip100"].seconds_per_step
                < quick_results["skip1"].seconds_per_step)
        assert (quick_results["skip100"].tcp_poll_time
                < quick_results["skip1"].tcp_poll_time)

    def test_all_tcp_much_slower(self, quick_results):
        assert (quick_results["all_tcp"].seconds_per_step
                > 2.0 * quick_results["selective"].seconds_per_step)

    def test_selective_pays_no_tcp_tax_outside_coupling(self, quick_results):
        # Selective polling fires TCP only in the coupling section.
        assert (quick_results["selective"].tcp_poll_time
                < quick_results["skip1"].tcp_poll_time)


class TestModes:
    def test_labels(self, quick_results):
        assert quick_results["selective"].label == "Selective TCP"
        assert quick_results["forwarding"].label == "Forwarding"
        assert quick_results["skip100"].label == "skip poll 100"
        assert quick_results["all_tcp"].label.startswith("all TCP")

    def test_forwarding_uses_forwarders(self, quick_results):
        # Forwarded runs show no TCP polling on non-forwarder members.
        result = quick_results["forwarding"]
        assert result.coupling_wait > 0

    def test_larger_steps_config(self):
        cfg = dataclasses.replace(TEST_CONFIG, steps=4)
        result = run_coupled_model(cfg, ClimateMode.SKIP_POLL, skip_poll=50)
        assert result.config.steps // result.config.couple_every == 2
        assert result.total_time > 0
