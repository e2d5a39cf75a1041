"""Every ``repro.bench`` artefact honours the one protocol.

Table-driven: adding an artefact adds a table line, and these tests
pick it up.  The metric *set* of each artefact built here is pinned to
its section of the committed baseline, so a renamed or dropped metric
fails in tier-1 rather than only in the CI regression gate.
"""

import json
import pathlib

import pytest

from repro.bench import ARTEFACTS, artefact
from repro.bench.record import BenchRecord, load_record
from repro.fleet.tasks import resolve_runner
from repro.util.document import check, dumps

BENCHMARKS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"

#: Artefacts cheap enough to build in tier-1 (``bench_result`` shares
#: them with the per-artefact test modules); the committed baseline
#: carries each one's section.
BUILT = ("figure4", "baselines", "chaos", "analysis", "load", "place")


@pytest.mark.parametrize("name", ARTEFACTS)
def test_table_entry_resolves_to_its_own_artefact(name):
    entry = artefact(name)
    assert entry.name == name
    assert callable(entry.run)
    assert callable(entry.check)  # no artefact asserts nothing


def test_unknown_names_are_refused():
    with pytest.raises(LookupError, match="unknown bench artefact"):
        artefact("figure5")
    with pytest.raises(LookupError, match="unknown bench artefact"):
        resolve_runner("bench.artefact")("figure5")


def test_fleet_runner_goes_through_the_table(bench_result):
    shipped = resolve_runner("bench.artefact")("baselines")
    assert shipped.name == "baselines"
    assert shipped.metrics == tuple(bench_result("baselines").metrics())
    assert shipped.stdout == (bench_result("baselines").render()
                              + "\nshape: OK\n")


def test_only_the_fleet_tier_is_opt_in():
    assert [name for name in ARTEFACTS if not artefact(name).default] \
        == ["fleet"]


@pytest.mark.parametrize(
    "path", sorted(BENCHMARKS.glob("*.json")),
    ids=lambda path: path.name)
def test_committed_baseline_loads(path):
    # The gate's own door, load-tier completeness rule included: a
    # validator change must not silently un-load a committed baseline.
    assert load_record(str(path))["artefacts"]


def _populated(name, result):
    record = BenchRecord("conformance")
    record.extend(name, result.metrics())
    return record


@pytest.mark.parametrize("name", BUILT)
class TestBuilt:
    def test_metric_names_unique(self, name, bench_result):
        names = [metric.name for metric in bench_result(name).metrics()]
        assert len(names) == len(set(names))

    def test_record_valid_and_repeatable(self, name, bench_result):
        result = bench_result(name)
        one = dumps(_populated(name, result).to_document(), indent=1)
        assert one == dumps(_populated(name, result).to_document(),
                            indent=1)
        check(json.loads(one))

    def test_metric_set_matches_baseline(self, name, bench_result):
        document = json.loads(
            (BENCHMARKS / "BENCH_baseline.json").read_text())
        committed = {
            (metric, body["unit"], body["kind"], body["direction"])
            for metric, body in
            document["artefacts"][name]["metrics"].items()
            # trace.* describe the traced run, not the artefact.
            if not metric.startswith("trace.")}
        built = _populated(name, bench_result(name)).to_document()
        current = {
            (metric, body["unit"], body["kind"], body["direction"])
            for metric, body in
            built["artefacts"][name]["metrics"].items()}
        assert current == committed
