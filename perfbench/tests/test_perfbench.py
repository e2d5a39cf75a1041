"""The benchmark's own contract: names, units, sums, and failure counting."""

import importlib
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import catalogue, child, runner

ROOT = runner.ROOT
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "-m", "perfbench", *args],
                          cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)


# -- BENCHMARK.json -----------------------------------------------------------

def test_manifest_is_the_catalogue_written_out():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        assert json.load(handle) == catalogue.manifest()


def test_manifest_is_within_the_driver_limits():
    doc = catalogue.manifest()
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in doc[section]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in doc["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert len(json.dumps(doc)) < 64 * 1024


def test_every_interaction_names_real_metrics_and_workloads():
    layer = {name for name, _u, _b in catalogue.PER_LAYER}
    e2e = {name for name, *_rest in catalogue.END_TO_END}
    for metrics, moves, on, off in catalogue.INTERACTIONS:
        assert set(metrics) <= layer and set(moves) <= e2e
        assert set(on) | set(off) <= set(catalogue.WORKLOAD_NAMES)


# -- one full run per workload ------------------------------------------------

@pytest.fixture(scope="module", params=catalogue.WORKLOAD_NAMES)
def result(request):
    done = _run("--workload", request.param, "--seconds", "0.5")
    assert done.returncode == 0, done.stdout + done.stderr
    with open(os.path.join(runner.OUT,
                           f"result-{request.param}.json")) as handle:
        return json.load(handle), done.stdout


def test_result_has_every_metric_with_its_unit(result):
    doc, stdout = result
    for section, metrics in (("end_to_end", catalogue.END_TO_END),
                             ("per_layer", catalogue.PER_LAYER)):
        assert set(doc[section]) == {name for name, *_rest in metrics}
        for name, unit, *_rest in metrics:
            assert doc[section][name]["unit"] == unit
            assert isinstance(doc[section][name]["value"], (int, float))
            assert re.search(rf"^  {re.escape(name)} +\S+ {re.escape(unit)}\b",
                             stdout, re.MULTILINE), name
    assert all(doc["end_to_end"][name]["value"] > 0
               for name in doc["end_to_end"])
    assert doc["fail_frac"] == 0 and doc["pinned"] == doc["digest"]
    assert set(doc["fingerprint"]) == {"nproc", "python", "numpy", "commit"}


def test_self_frac_buckets_sum_to_one(result):
    doc, _stdout = result
    total = sum(doc["per_layer"][f"{bucket}.self_frac"]["value"]
                for bucket in catalogue.BUCKETS)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_span_file_has_one_span_per_public_call(result):
    doc, _stdout = result
    path = os.path.join(runner.OUT, f"spans-{doc['workload']}.jsonl")
    with open(path) as handle:
        spans = [json.loads(line) for line in handle]
    assert len(spans) == doc["spans"] > 0
    for span in spans:
        assert set(span) == {"id", "name", "parent", "workload", "rep",
                             "start", "end"}
        assert span["end"] >= span["start"]
        assert span["name"].partition(".")[0] in catalogue.LAYERS
    assert {"traced", "probes"} == {span["rep"] for span in spans}


# -- the driver's form --------------------------------------------------------

@pytest.mark.parametrize("trace, metrics", [
    ("0", catalogue.END_TO_END), ("1", catalogue.PER_LAYER)])
def test_driver_line(trace, metrics):
    done = _run("--workload", "dual_poll", "--seed", "3", "--seconds", "0.5",
                "--trace", trace)
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert set(line["metrics"]) == {name for name, *_rest in metrics}
    for name, unit, *_rest in metrics:
        assert set(line["metrics"][name]) == {"value", "unit"}
        assert line["metrics"][name]["unit"] == unit


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "dual_poll", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


# -- failure counting ---------------------------------------------------------

def test_count_failures():
    assert child.count_failures(["a", "a", "a"], None) == 0
    assert child.count_failures(["a", "a", "a"], "a") == 0
    assert child.count_failures(["a", None, "b", "a"], "a") == 2
    assert child.count_failures(["a", "a"], "b") == 2
    assert child.count_failures([None, None], None) == 2


def test_corrupted_pin_raises_fail_frac(tmp_path):
    module = importlib.import_module("perfbench.workloads.dual_poll")
    inputs = module.build(0, str(tmp_path))
    with open(os.path.join(ROOT, "perfbench", "pins.json")) as handle:
        pin = json.load(handle)["digests"]["dual_poll"]
    good = child.measure("dual_poll", module, inputs, seconds=0.0, pin=pin,
                         probes=False, spans_path=None)
    assert good["failed"] == 0 and good["digest"] == pin
    corrupted = pin[:-1] + ("0" if pin[-1] != "0" else "1")
    bad = child.measure("dual_poll", module, inputs, seconds=0.0,
                        pin=corrupted, probes=False, spans_path=None)
    assert bad["failed"] == bad["attempted"] > 0
