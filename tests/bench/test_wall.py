"""Tests for the wall-clock benchmark tier and its gate semantics."""

import copy

import pytest

from repro.bench import Artefact, RunOptions
from repro.bench.__main__ import main as bench_main
from repro.bench.record import (
    BenchRecord,
    compare_records,
    load_record,
)
from repro.bench.wall import (
    WallMeasurement,
    _percentile,
    measure_artefact,
    record_wall,
)
import repro.obs as obs
from repro.testbeds import make_sp2


# -- percentiles -------------------------------------------------------------

def test_percentile_interpolates():
    sample = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert _percentile(sample, 0.5) == 3.0
    assert _percentile(sample, 0.0) == 1.0
    assert _percentile(sample, 1.0) == 5.0
    assert _percentile(sample, 0.25) == 2.0
    assert _percentile([7.0], 0.9) == 7.0
    with pytest.raises(ValueError):
        _percentile([], 0.5)


def test_measurement_summary_statistics():
    m = WallMeasurement("x", [0.3, 0.1, 0.2], events=600)
    assert m.walls == [0.1, 0.2, 0.3]  # stored sorted
    assert m.median == 0.2
    assert m.events_per_sec == pytest.approx(3000.0)
    assert "600 events" in m.summary()


# -- watching_runtimes -------------------------------------------------------

def _tiny_run():
    bed = make_sp2(nodes_a=2, nodes_b=1)
    nexus = bed.nexus
    a = nexus.context(bed.hosts_a[0], "A")
    b = nexus.context(bed.hosts_a[1], "B")
    b.register_handler("h", lambda c, e, buf: None)
    sp = a.startpoint_to(b.new_endpoint())

    def sender():
        from repro.core.buffers import Buffer
        yield from sp.rsr("h", Buffer())

    def receiver():
        yield from b.wait(lambda: b.rsrs_dispatched > 0)

    nexus.spawn(receiver())
    nexus.spawn(sender())
    nexus.run(max_events=100_000)


def test_watching_runtimes_counts_without_tracing():
    with obs.watching_runtimes() as watched:
        _tiny_run()
    assert len(watched) == 1
    assert watched[0].sim.events_processed > 0
    # Crucially, watching must NOT have switched tracing on.
    assert not obs.default_observe()
    assert watched[0].obs.enabled is False


def test_watching_runtimes_restores_previous_scope():
    with obs.watching_runtimes() as outer:
        with obs.watching_runtimes() as inner:
            _tiny_run()
        assert len(inner) == 1 and outer == []
        _tiny_run()
        assert len(outer) == 1


# -- measure_artefact --------------------------------------------------------

def test_measure_artefact_is_deterministic_and_silent(capsys):
    class Tiny:
        def render(self):
            return "rendered, never printed"

    def run(options):
        _tiny_run()
        return Tiny()

    tiny = Artefact("tiny", run)
    options = RunOptions(quick=True)
    measurement = measure_artefact(tiny, options, runs=3)
    assert capsys.readouterr().out == ""
    assert measurement.artefact == "tiny"
    assert len(measurement.walls) == 3
    assert measurement.events > 0
    assert all(w >= 0.0 for w in measurement.walls)
    again = measure_artefact(tiny, options, runs=2)
    assert again.events == measurement.events  # same seeds, same events

    with pytest.raises(ValueError, match="runs"):
        measure_artefact(tiny, options, runs=0)


def test_record_wall_metric_kinds():
    measurement = WallMeasurement("tiny", [0.2, 0.1, 0.3], events=1000)
    record = BenchRecord("wall-test", quick=True)
    record_wall(record, measurement)
    metrics = record.metrics("tiny")
    assert metrics["wall_median_s"].kind == "wall"
    assert metrics["wall_median_s"].direction == "lower_is_better"
    assert metrics["events_per_sec"].kind == "wall"
    assert metrics["events_per_sec"].direction == "higher_is_better"
    assert metrics["sim_events"].kind == "count"
    # Wall metrics must survive into the document for the wall baseline.
    doc = record.to_document(include_wall=True)
    assert "wall_median_s" in doc["artefacts"]["tiny"]["metrics"]
    assert "wall_median_s" not in record.to_document().get(
        "artefacts", {}).get("tiny", {}).get("metrics", {})


# -- wall gating in compare_records ------------------------------------------

def _wall_documents():
    base = BenchRecord("wall-base", quick=True)
    record_wall(base, WallMeasurement("tiny", [1.0, 1.0, 1.0], events=1000))
    cur = BenchRecord("wall-cur", quick=True)
    record_wall(cur, WallMeasurement("tiny", [1.2, 1.2, 1.2], events=1000))
    return (base.to_document(include_wall=True),
            cur.to_document(include_wall=True))


def test_wall_metrics_advisory_by_default():
    baseline, current = _wall_documents()
    comparison = compare_records(baseline, current)
    assert comparison.ok  # +20% wall drift never gates without opt-in
    assert any(d.status == "wall (advisory)" for d in comparison.diffs)


def test_wall_tolerance_gates_big_regressions_only():
    baseline, current = _wall_documents()
    # +20% median sits inside a 75% band...
    assert compare_records(baseline, current, wall_tolerance=0.75).ok
    # ...but gates once the band is tighter than the drift.
    tight = compare_records(baseline, current, wall_tolerance=0.10)
    assert not tight.ok
    labels = {d.label for d in tight.regressions}
    # Median went up AND events/sec went down: both directions gate.
    assert "tiny.wall_median_s" in labels
    assert "tiny.events_per_sec" in labels


def test_wall_tolerance_leaves_sim_gate_exact():
    baseline, current = _wall_documents()
    drifted = copy.deepcopy(current)
    drifted["artefacts"]["tiny"]["metrics"]["sim_events"]["value"] = 1500.0
    comparison = compare_records(baseline, drifted, wall_tolerance=10.0)
    # A huge wall band must not loosen the deterministic count gate.
    assert any(d.label == "tiny.sim_events" and d.gates
               for d in comparison.diffs)


def test_missing_wall_metric_never_gates():
    baseline, current = _wall_documents()
    stripped = copy.deepcopy(current)
    del stripped["artefacts"]["tiny"]["metrics"]["wall_p90_s"]
    comparison = compare_records(baseline, stripped, wall_tolerance=0.75)
    assert all(d.name != "wall_p90_s" for d in comparison.diffs)
    assert comparison.ok


# -- CLI wiring --------------------------------------------------------------

def test_cli_wall_round_trip(tmp_path, capsys):
    record_path = tmp_path / "wall.json"
    exit_code = bench_main(["baselines", "--wall", "--quick", "--runs", "2",
                            "--record", str(record_path)])
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "events/s" in out
    document = load_record(str(record_path))
    metrics = document["artefacts"]["baselines"]["metrics"]
    assert "wall_median_s" in metrics and "events_per_sec" in metrics

    # Self-comparison passes the wall gate.
    exit_code = bench_main(["baselines", "--wall", "--quick", "--runs", "2",
                            "--baseline", str(record_path), "--check"])
    assert exit_code == 0


def test_cli_wall_rejects_tracing(capsys):
    with pytest.raises(SystemExit):
        bench_main(["--wall", "--trace", "t.json"])
    assert "cannot be combined" in capsys.readouterr().err
