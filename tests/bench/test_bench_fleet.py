"""The fleet artefact's shape check and metric names, on synthetic
points — the real cold/warm measurement runs in CI's
``regression-gate`` (its fleet scaling step)."""

import pytest

from repro.bench.fleet import FleetScaling, ScalingPoint, check_fleet_shape


def _scaling(cpus, speedup_2, speedup_4=1.0, digest_4="d"):
    def point(workers, speedup, digest="d"):
        return ScalingPoint(workers=workers, cold_wall_s=1.0,
                            warm_wall_s=1.0 / speedup, speedup=speedup,
                            efficiency=speedup / workers,
                            digests=("d", digest))

    return FleetScaling(points=(point(1, 1.0), point(2, speedup_2),
                                point(4, speedup_4, digest_4)),
                        tasks=8, cpus=cpus)


def test_warm_two_worker_speedup_is_asserted_from_two_cpus():
    check_fleet_shape(_scaling(cpus=1, speedup_2=0.4))
    check_fleet_shape(_scaling(cpus=2, speedup_2=1.6))
    with pytest.raises(AssertionError, match="2-worker"):
        check_fleet_shape(_scaling(cpus=2, speedup_2=0.9))


def test_a_slow_two_worker_call_names_its_walls_and_the_load(monkeypatch):
    monkeypatch.setattr("os.getloadavg", lambda: (3.5, 2.25, 1.0))
    scaling = FleetScaling(points=(
        ScalingPoint(workers=1, cold_wall_s=1.5, warm_wall_s=1.2,
                     speedup=1.0, efficiency=1.0, digests=("d", "d")),
        ScalingPoint(workers=2, cold_wall_s=1.75, warm_wall_s=1.5,
                     speedup=0.8, efficiency=0.4, digests=("d", "d"))),
        tasks=8, cpus=2)
    with pytest.raises(AssertionError) as caught:
        check_fleet_shape(scaling)
    assert str(caught.value) == (
        "warm 2-worker speedup 0.80x does not beat serial on a 2-cpu host "
        "(warm walls: serial 1.200 s, 2 workers 1.500 s; 2-worker cold "
        "wall 1.750 s; load average 3.50/2.25/1.00)")


def test_four_worker_floor_is_asserted_from_four_cpus():
    check_fleet_shape(_scaling(cpus=2, speedup_2=1.6, speedup_4=1.5))
    with pytest.raises(AssertionError, match="4-worker"):
        check_fleet_shape(_scaling(cpus=4, speedup_2=1.6, speedup_4=1.5))


def test_a_warm_call_that_merges_differently_fails_on_any_host():
    with pytest.raises(AssertionError, match="not deterministic"):
        check_fleet_shape(_scaling(cpus=1, speedup_2=0.4, digest_4="x"))


def test_cold_and_warm_walls_are_wall_metrics():
    metrics = {metric.name: metric
               for metric in _scaling(cpus=2, speedup_2=1.6).metrics()}
    for name in ("w2.cold_wall_s", "w2.warm_wall_s", "w2.speedup",
                 "w2.efficiency"):
        assert metrics[name].kind == "wall"
    assert metrics["merge_identical"].value == 1.0
