"""Tests for coupler regridding, including mixed-resolution coupling."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.apps.climate import ClimateMode, run_coupled_model
from repro.apps.climate.config import TEST_CONFIG, ClimateConfig
from repro.apps.climate.regrid import regrid


def test_bench_imports_without_scipy():
    """scipy is a ``test`` extra, needed only for mixed-resolution
    coupling: a plain install must still import (and launch) the bench
    harness and every app."""
    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    code = ("import sys; sys.modules['scipy'] = None; "
            "import repro.bench, repro.apps; "
            "assert not any(name.startswith('scipy.') for name in sys.modules)")
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr


class TestRegrid:
    def test_identity_when_shapes_match(self):
        field = np.random.default_rng(0).random((6, 8))
        out = regrid(field, (6, 8))
        assert np.array_equal(out, field)
        assert out is not field  # a copy, never a view

    def test_upsample_preserves_mean(self):
        field = np.random.default_rng(1).random((4, 8))
        out = regrid(field, (8, 16))
        assert out.shape == (8, 16)
        assert out.mean() == pytest.approx(field.mean())

    def test_downsample_preserves_mean(self):
        field = np.random.default_rng(2).random((8, 16))
        out = regrid(field, (2, 8))
        assert out.shape == (2, 8)
        assert out.mean() == pytest.approx(field.mean())

    def test_constant_field_exact(self):
        field = np.full((4, 6), 3.5)
        out = regrid(field, (7, 9))
        assert np.allclose(out, 3.5)

    def test_smooth_gradient_preserved(self):
        yy, xx = np.mgrid[0:8, 0:8]
        field = xx.astype(float)
        out = regrid(field, (16, 16))
        # still monotone along x
        assert (np.diff(out, axis=1) >= -1e-9).all()

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            regrid(np.zeros(5), (2, 2))


class TestMixedResolutionCoupling:
    """The ocean runs on a coarser grid than the atmosphere; the coupler
    regrids both directions."""

    @pytest.fixture(scope="class")
    def mixed_config(self):
        return dataclasses.replace(
            TEST_CONFIG,
            atmo_nx=24, atmo_ny=8,     # 2 rows per atmo rank
            ocean_nx=12, ocean_ny=8,   # coarser in x
        )

    def test_runs_to_completion(self, mixed_config):
        result = run_coupled_model(mixed_config, ClimateMode.SKIP_POLL,
                                   skip_poll=50)
        assert result.total_time > 0
        assert np.isfinite(result.atmo_checksum)
        assert np.isfinite(result.ocean_checksum)

    def test_deterministic(self, mixed_config):
        a = run_coupled_model(mixed_config, ClimateMode.SKIP_POLL,
                              skip_poll=50)
        b = run_coupled_model(mixed_config, ClimateMode.SKIP_POLL,
                              skip_poll=50)
        assert a.atmo_checksum == b.atmo_checksum
        assert a.ocean_checksum == b.ocean_checksum

    def test_physics_independent_of_comm_mode(self, mixed_config):
        selective = run_coupled_model(mixed_config, ClimateMode.SELECTIVE)
        all_tcp = run_coupled_model(mixed_config, ClimateMode.ALL_TCP)
        assert selective.atmo_checksum == pytest.approx(
            all_tcp.atmo_checksum)
        assert selective.ocean_checksum == pytest.approx(
            all_tcp.ocean_checksum)

    def test_same_grid_results_unchanged_by_regrid_path(self):
        """The identity regrid must not perturb the original experiment."""
        result = run_coupled_model(TEST_CONFIG, ClimateMode.SELECTIVE)
        again = run_coupled_model(TEST_CONFIG, ClimateMode.SELECTIVE)
        assert result.atmo_checksum == again.atmo_checksum
