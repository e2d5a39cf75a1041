"""Streaming telemetry spool: determinism, sampling, rotation, memory.

The spool's contract is byte-level: identical scenarios with identical
stream configurations must produce identical shard sets — including in
the same process, where the global context-id counter keeps running —
and the manifest's lossiness ledger must always balance.  Sampling is
whole-RSR, seeded, and never allowed to discard failure evidence.
"""

import dataclasses
import json
import os

import pytest

from repro import obs as _obs
from repro.bench.analysis import chaos_scenario, forwarding_scenario
from repro.load import run_scenario
from repro.obs.spans import PHASE_FAILOVER, PHASE_RETRY
from repro.obs.stream import (
    MANIFEST_NAME,
    StreamConfig,
    fold_stream,
    iter_records,
    parse_policy,
    read_manifest,
)
from repro.util.document import DocumentError

POLICIES = (None, "head:5", "tail:5", "head:3,tail:3", "reservoir:4")


def run_streamed(tmp_path, scenario, sub, **kw):
    directory = str(tmp_path / sub)
    config = StreamConfig(directory=directory, **kw)
    with _obs.collecting() as runs:
        result = run_scenario(scenario, stream=config)
    obs, _nexus = runs[-1]
    return directory, result, obs


def shard_set(directory):
    """Every file in the spool directory, name -> raw bytes."""
    return {name: (open(os.path.join(directory, name), "rb").read())
            for name in sorted(os.listdir(directory))}


class TestDeterminism:
    @pytest.mark.parametrize("policy", POLICIES,
                             ids=[p or "keep-all" for p in POLICIES])
    def test_same_process_runs_spool_identical_bytes(self, tmp_path,
                                                     policy):
        # Two back-to-back runs in one process: the global context-id
        # counter has moved on, so this catches any raw-id leak into
        # the shards (the spool renumbers contexts densely).
        sets = []
        for index in range(2):
            directory, _result, _obs_ = run_streamed(
                tmp_path, chaos_scenario(), f"run{policy}-{index}",
                max_records=500, policy=policy, seed=7)
            sets.append(shard_set(directory))
        assert sets[0] == sets[1]

    def test_different_seed_changes_reservoir_sample(self, tmp_path):
        picks = []
        for seed in (1, 2):
            directory, _result, _obs_ = run_streamed(
                tmp_path, chaos_scenario(), f"seed{seed}",
                policy="reservoir:3", seed=seed)
            picks.append(sorted(
                record["rsr"] for record in iter_records(directory)
                if record["k"] == "r"))
        assert picks[0] != picks[1], (
            "different reservoir seeds should keep different RSR sets")


class TestSampling:
    def test_forced_keep_preserves_failure_evidence(self, tmp_path):
        # head:0 discards every unforced RSR, so whatever reaches disk
        # got there through the always-keep classes.
        directory, result, obs = run_streamed(
            tmp_path, chaos_scenario(), "forced", policy="head:0")
        phases = set()
        drops = 0
        for record in iter_records(directory):
            if record["k"] == "s":
                phases.add(record["ph"])
            elif record["k"] == "x":
                drops += 1
        assert PHASE_RETRY in phases and PHASE_FAILOVER in phases, (
            "retry/failover witnesses must never be sampled out")
        manifest = read_manifest(directory)
        totals = manifest["totals"]
        assert drops == totals["drops"] >= 1, (
            "every message drop must reach the spool")
        assert totals["rsrs_sampled_out"] > 0, (
            "head:0 should discard the healthy RSRs")

    def test_sampled_spans_accounted_in_ledger(self, tmp_path):
        directory, _result, obs = run_streamed(
            tmp_path, chaos_scenario(), "ledger", policy="reservoir:4")
        totals = read_manifest(directory)["totals"]
        assert totals["spans_sampled_out"] > 0
        assert totals["spans_opened"] == (totals["spans_emitted"]
                                          + totals["spans_sampled_out"]
                                          + totals["spans_dropped"])

    def test_parse_policy_rejects_malformed_specs(self):
        for bad in ("head", "head:x", "middle:3", "reservoir:0",
                    "head:-1", "head:1,tail"):
            with pytest.raises(ValueError):
                parse_policy(bad)
        assert parse_policy(None) is None
        assert parse_policy("") is None


class TestRotationAndManifest:
    def test_rotation_by_record_count(self, tmp_path):
        directory, _result, _obs_ = run_streamed(
            tmp_path, forwarding_scenario(), "rot", max_records=100)
        manifest = read_manifest(directory)
        shards = manifest["shards"]
        assert len(shards) > 1, "tiny max_records must rotate"
        for shard in shards[:-1]:
            assert shard["records"] == 100
        assert (sum(shard["records"] for shard in shards)
                == manifest["totals"]["records"])

    def test_manifest_checksums_match_disk(self, tmp_path):
        import hashlib

        directory, _result, _obs_ = run_streamed(
            tmp_path, forwarding_scenario(), "sums", max_records=150)
        for shard in read_manifest(directory)["shards"]:
            data = open(os.path.join(directory, shard["name"]),
                        "rb").read()
            assert hashlib.sha256(data).hexdigest() == shard["sha256"]
            assert len(data) == shard["bytes"]
            assert data.count(b"\n") == shard["records"]

    def test_ledger_balances_without_sampling(self, tmp_path):
        directory, _result, obs = run_streamed(
            tmp_path, chaos_scenario(), "bal")
        totals = read_manifest(directory)["totals"]
        assert totals["spans_sampled_out"] == 0
        assert totals["spans_opened"] == totals["spans_emitted"]
        assert totals["rsrs_resolved"] == totals["rsrs_started"]
        assert obs.spans == [], "streaming must not retain spans"

    def test_records_are_compact_sorted_json(self, tmp_path):
        directory, _result, _obs_ = run_streamed(
            tmp_path, forwarding_scenario(), "enc")
        manifest = read_manifest(directory)
        path = os.path.join(directory, manifest["shards"][0]["name"])
        with open(path) as handle:
            for line in handle:
                record = json.loads(line)
                recoded = json.dumps(record, sort_keys=True,
                                     separators=(",", ":"))
                assert recoded == line.rstrip("\n")


class TestBoundedMemory:
    def test_peak_open_spans_flat_as_run_grows(self, tmp_path):
        # 4x the duration → ~4x the spans opened, but the number of
        # spans simultaneously resident must track in-flight work, not
        # run length.  (This is the whole point of the spool.)
        short = dataclasses.replace(forwarding_scenario(), duration=0.1)
        long = dataclasses.replace(forwarding_scenario(), duration=0.4)
        _dir_s, _res_s, obs_short = run_streamed(tmp_path, short, "short")
        _dir_l, _res_l, obs_long = run_streamed(tmp_path, long, "long")
        opened_short = obs_short.overhead()["spans_recorded"]
        opened_long = obs_long.overhead()["spans_recorded"]
        assert opened_long > 2.5 * opened_short
        assert obs_long.peak_spans <= 2 * obs_short.peak_spans, (
            f"peak open spans grew with run length: "
            f"{obs_short.peak_spans} -> {obs_long.peak_spans}")

    def test_capacity_cap_does_not_apply_while_streaming(self, tmp_path):
        directory, _result, obs = run_streamed(
            tmp_path, forwarding_scenario(), "cap")
        totals = read_manifest(directory)["totals"]
        assert totals["spans_dropped"] == 0
        assert obs.dropped_spans == 0


class TestValidateRoundTrip:
    def test_manifest_and_shard_validate(self, tmp_path, capsys):
        from repro.obs.validate import main as validate_main

        directory, _result, _obs_ = run_streamed(
            tmp_path, forwarding_scenario(), "val", max_records=200)
        manifest_path = os.path.join(directory, MANIFEST_NAME)
        assert validate_main([manifest_path]) == 0
        assert "stream manifest" in capsys.readouterr().out
        for shard in read_manifest(directory)["shards"]:
            assert validate_main(
                [os.path.join(directory, shard["name"])]) == 0
            assert "stream shard" in capsys.readouterr().out

    def test_validator_rejects_unbalanced_ledger(self, tmp_path, capsys):
        from repro.obs.validate import main as validate_main

        directory, _result, _obs_ = run_streamed(
            tmp_path, forwarding_scenario(), "bad")
        manifest_path = os.path.join(directory, MANIFEST_NAME)
        manifest = json.load(open(manifest_path))
        manifest["totals"]["spans_emitted"] += 1
        json.dump(manifest, open(manifest_path, "w"))
        assert validate_main([manifest_path]) == 1
        assert "ledger" in capsys.readouterr().err


class TestReadersValidate:
    """Regression: the fold used to read whatever ``manifest.json`` held
    (a foreign schema folded silently to an empty graph) and a torn
    shard line surfaced as a bare ``JSONDecodeError``."""

    @pytest.fixture(scope="class")
    def spool(self, tmp_path_factory):
        directory, _result, _obs_ = run_streamed(
            tmp_path_factory.mktemp("readers"), forwarding_scenario(),
            "spool")
        return directory

    def _rewritten(self, spool, tmp_path, edit):
        directory = tmp_path / "copy"
        directory.mkdir()
        for name, data in shard_set(spool).items():
            (directory / name).write_bytes(data)
        manifest = json.loads((directory / MANIFEST_NAME).read_text())
        edit(manifest)
        (directory / MANIFEST_NAME).write_text(json.dumps(manifest))
        return str(directory)

    @pytest.mark.parametrize("field, value, reason", [
        ("schema_version", 99, "schema_version is 99"),
        ("schema", "something.else", "found 'something.else'"),
    ])
    def test_skewed_or_foreign_manifest_is_refused(self, spool, tmp_path,
                                                   field, value, reason):
        def edit(manifest):
            manifest[field] = value
        with pytest.raises(DocumentError) as caught:
            fold_stream(self._rewritten(spool, tmp_path, edit))
        assert MANIFEST_NAME in str(caught.value)
        assert reason in str(caught.value)

    def test_unbalanced_ledger_is_refused(self, spool, tmp_path):
        def unbalance(manifest):
            manifest["totals"]["spans_emitted"] += 1
        with pytest.raises(DocumentError) as caught:
            fold_stream(self._rewritten(spool, tmp_path, unbalance))
        assert MANIFEST_NAME in str(caught.value)
        assert "ledger" in str(caught.value)

    def test_torn_shard_line_names_shard_and_line(self, spool, tmp_path):
        directory = self._rewritten(spool, tmp_path, lambda manifest: None)
        shard = read_manifest(directory)["shards"][0]["name"]
        path = os.path.join(directory, shard)
        lines = open(path).read().splitlines(keepends=True)
        with open(path, "w") as handle:
            handle.writelines(lines[:-1])
            handle.write(lines[-1][:16])
        with pytest.raises(DocumentError) as caught:
            fold_stream(directory)
        assert f"{shard}:{len(lines)}:" in str(caught.value)
