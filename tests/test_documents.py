"""Every document kind honours the one idiom in ``repro.util.document``.

Table-driven: adding a kind adds a ``SCHEMAS`` line, and these tests
pick it up (and ask for a sample of it).  Samples are files the real
writers produced — the analysis and placement exports the session's
``bench_result`` fixture already builds, plus one tiny streamed fleet
grid and one ping-pong trace built here.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

from repro.bench.record import BenchRecord
from repro.fleet import ScenarioGrid, key_slug, merge_load_results, \
    run_serial
from repro.load import FixedSize, FleetSpec, LoadScenario, OpenLoop
from repro.obs.export import write_chrome_trace
from repro.obs.stream import merge_spool_manifests, write_merged_manifest
from repro.obs.validate import validate_file
from repro.util.document import (
    SCHEMAS,
    DocumentError,
    Schema,
    check,
    dumps,
    load,
    schema,
    write,
)

from .obs.test_spans import run_pingpong

#: Kinds dispatched by their ``schema`` key -> a field each requires.
KEYED = {
    "repro.bench.record": "environment",
    "repro.fleet.load_summary": "totals",
    "repro.obs.critpath": "paths",
    "repro.obs.graph": "edges",
    "repro.obs.stream.manifest": "totals",
    "repro.obs.stream.manifest.merged": "tasks",
    "repro.obs.timeline": "bounds",
    "repro.place.plan": "assignment",
}
#: Kinds with no ``schema`` key, recognised by shape.
SHAPED = {"repro.obs.stream.shard", "repro.obs.trace"}


@pytest.fixture(scope="module")
def samples(bench_result, bench_exports, tmp_path_factory):
    """schema id -> path of one file of that kind, as really written."""
    root = tmp_path_factory.mktemp("documents")
    bench_result("analysis")
    bench_result("place")
    record = BenchRecord("documents")
    record.extend("baselines", bench_result("baselines").metrics())
    record.write(str(root / "record.json"))

    grid = ScenarioGrid(
        name="g", factors=(0.5, 1.0), stream_root=str(root / "spools"),
        base=LoadScenario(
            name="tiny", duration=0.05, seed=7,
            fleets=(FleetSpec("rpc", clients=2, arrival=OpenLoop(rate=40.0),
                              sizes=FixedSize(512), route="remote",
                              service_ops=5, service_time=100e-6),)))
    outcomes = run_serial(grid.tasks())
    write(str(root / "merged.json"), merge_load_results(outcomes, plan="g"),
          indent=1)
    spools = {key: key_slug(key) for key in outcomes}
    merged = write_merged_manifest(
        str(root / "spools"),
        merge_spool_manifests(str(root / "spools"), spools))
    spool = root / "spools" / sorted(spools.values())[0]

    bed = run_pingpong()
    write_chrome_trace(str(root / "trace.json"), bed.nexus.obs, bed.nexus)
    return {
        "repro.bench.record": str(root / "record.json"),
        "repro.fleet.load_summary": str(root / "merged.json"),
        "repro.obs.critpath": str(bench_exports / "analysis/critpath.json"),
        "repro.obs.graph": str(bench_exports / "analysis/graph.json"),
        "repro.obs.stream.manifest": str(spool / "manifest.json"),
        "repro.obs.stream.manifest.merged": merged,
        "repro.obs.stream.shard": str(spool / "shard-00000.jsonl"),
        "repro.obs.timeline": str(bench_exports / "analysis/timeline.json"),
        "repro.obs.trace": str(root / "trace.json"),
        "repro.place.plan": str(bench_exports / "place/placement.json"),
    }


def test_the_table_is_the_keyed_and_the_shaped_kinds():
    assert set(SCHEMAS) == set(KEYED) | SHAPED


@pytest.mark.parametrize("schema_id", SCHEMAS)
def test_owner_declares_the_schema_it_is_listed_for(schema_id):
    owner = importlib.import_module(SCHEMAS[schema_id])
    declared = [value for value in vars(owner).values()
                if isinstance(value, Schema) and value.id == schema_id]
    assert declared == [schema(schema_id)]
    assert (declared[0].version is None) == (schema_id in SHAPED)
    assert declared[0].title and callable(declared[0].validate)


def test_stream_owns_both_manifests_and_the_shard_lines():
    assert sorted(k for k, v in SCHEMAS.items() if v == "repro.obs.stream") \
        == ["repro.obs.stream.manifest", "repro.obs.stream.manifest.merged",
            "repro.obs.stream.shard"]


def test_an_id_is_only_ever_a_table_key():
    # 'json' is importable; as a schema id it is just unknown.
    for bad in ("json", "repro.obs.validate", None, 7):
        with pytest.raises(DocumentError, match="unknown schema"):
            schema(bad)


@pytest.mark.parametrize("schema_id", SCHEMAS)
def test_every_written_file_validates(schema_id, samples):
    kind, summary = validate_file(samples[schema_id])
    assert kind is schema(schema_id)
    assert summary


@pytest.mark.parametrize("schema_id", KEYED)
class TestKeyed:
    def test_written_bytes_are_canonical_and_load_back(self, schema_id,
                                                       samples):
        with open(samples[schema_id]) as handle:
            text = handle.read()
        document = load(samples[schema_id], schema_id)
        assert document == json.loads(text)
        assert text in (dumps(document), dumps(document, indent=1))

    def test_two_writes_are_byte_identical(self, schema_id, samples,
                                           tmp_path):
        document = load(samples[schema_id], schema_id)
        for name in ("one.json", "two.json"):
            write(str(tmp_path / name), document)
        assert (tmp_path / "one.json").read_bytes() \
            == (tmp_path / "two.json").read_bytes()
        assert load(str(tmp_path / "one.json"), schema_id) == document

    def test_skewed_version_names_the_id_and_both_versions(self, schema_id,
                                                           samples):
        document = load(samples[schema_id], schema_id)
        document["schema_version"] = 99
        with pytest.raises(DocumentError) as caught:
            check(document)
        assert schema_id in str(caught.value)
        assert "99" in str(caught.value)
        assert repr(schema(schema_id).version) in str(caught.value)

    def test_missing_required_field_names_the_id(self, schema_id, samples):
        document = load(samples[schema_id], schema_id)
        del document[KEYED[schema_id]]
        with pytest.raises(DocumentError, match=schema_id):
            check(document)

    def test_load_refuses_another_kind_and_names_the_file(self, schema_id,
                                                          samples):
        other = next(k for k in KEYED if k != schema_id)
        with pytest.raises(DocumentError) as caught:
            load(samples[schema_id], other)
        assert os.path.basename(samples[schema_id]) in str(caught.value)
        assert "expected schema" in str(caught.value)


def _loaded_by(module):
    """The ``repro.*`` modules a fresh interpreter holds after importing
    ``module``."""
    root = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    out = subprocess.run(
        [sys.executable, "-c",
         f"import sys, {module}\n"
         "print(*(m for m in sys.modules if m.startswith('repro.')))"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.path.abspath(root)})
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_the_validator_imports_neither_bench_nor_place():
    loaded = _loaded_by("repro.obs.validate")
    assert "repro.util.document" in loaded
    assert not [m for m in loaded
                if m.startswith(("repro.bench", "repro.place",
                                 "repro.fleet", "repro.load"))]


def test_importing_obs_loads_one_new_module():
    loaded = _loaded_by("repro.obs")
    assert {m.split(".")[1] for m in loaded} == {
        "config", "core", "obs", "simnet", "testbeds", "transports", "util"}
    assert {m for m in loaded if m.startswith("repro.util.")} == {
        "repro.util.ascii_chart", "repro.util.document",
        "repro.util.records", "repro.util.units"}
