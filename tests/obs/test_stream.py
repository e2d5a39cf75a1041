"""Streaming telemetry spool: determinism, sampling, rotation, memory.

The spool's contract is byte-level: identical scenarios with identical
stream configurations must produce identical shard sets — including in
the same process, where the global context-id counter keeps running —
and the manifest's lossiness ledger must always balance.  Sampling is
whole-RSR, seeded, and never allowed to discard failure evidence.
"""

import dataclasses
import hashlib
import json
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs as _obs
from repro.bench.analysis import chaos_scenario, forwarding_scenario
from repro.load import run_scenario
from repro.obs import stream as _stream
from repro.obs.spans import PHASE_FAILOVER, PHASE_RETRY, Observability, Span
from repro.obs.stream import (
    FORCED_PHASES,
    MANIFEST_NAME,
    SHARD_PATTERN,
    SpanSpool,
    StreamConfig,
    fold_stream,
    iter_records,
    parse_policy,
    read_manifest,
)
from repro.simnet import Simulator
from repro.util.document import COMPACT, DocumentError, encode_compact

POLICIES = (None, "reservoir:1", "reservoir:4")


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
        # reservoir:1 keeps one unforced RSR per lane, far fewer than
        # carry failure evidence, so every evidence-carrying RSR of the
        # unsampled run must reach disk through the always-keep classes.
        def evidence(directory):
            rsrs = set()
            for record in iter_records(directory):
                if record["k"] == "x" or record["k"] == "s" and (
                        record["ph"] in FORCED_PHASES
                        or record["attrs"] is not None
                        and ("dropped" in record["attrs"]
                             or "failed" in record["attrs"])):
                    rsrs.add(record["rsr"])
            return rsrs

        everything, _result, _obs_ = run_streamed(
            tmp_path, chaos_scenario(), "all")
        directory, result, obs = run_streamed(
            tmp_path, chaos_scenario(), "forced", policy="reservoir:1")
        forced = evidence(everything)
        assert len(forced) > 2, "the chaos run must leave evidence"
        assert evidence(directory) == forced, (
            "failure witnesses must never be sampled out")
        phases = {record["ph"] for record in iter_records(directory)
                  if record["k"] == "s"}
        assert PHASE_RETRY in phases and PHASE_FAILOVER in phases
        totals = read_manifest(directory)["totals"]
        assert totals["drops"] == read_manifest(everything)["totals"][
            "drops"] >= 1, "every message drop must reach the spool"
        assert totals["rsrs_sampled_out"] > 0, (
            "reservoir:1 should discard healthy RSRs")

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
                    "head:-1", "head:1,tail", "head:3", "tail:2",
                    "reservoir", "reservoir:x"):
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


class TestFoldRefusal:
    """A shard line that decodes but is not a record the spool writes
    stops the fold with a :class:`DocumentError` naming ``shard:line``
    (a scalar line, a record without ``k``, a span without ``t0`` and
    an unknown kind used to escape as bare ``TypeError``, ``KeyError``
    or ``ValueError``).  The chaos spool is several read blocks long, so
    the block decoder's fallback is exercised at block edges too."""

    @pytest.fixture(scope="class")
    def spool(self, tmp_path_factory):
        directory, _result, _obs_ = run_streamed(
            tmp_path_factory.mktemp("refusal"), chaos_scenario(), "spool")
        return directory

    def _rewritten(self, spool, tmp_path, edit):
        """A copy of ``spool`` whose first shard's lines ``edit`` has
        rewritten in place (the manifest is left as it was)."""
        directory = tmp_path / "copy"
        directory.mkdir()
        for name, data in shard_set(spool).items():
            (directory / name).write_bytes(data)
        shard = read_manifest(str(directory))["shards"][0]["name"]
        path = directory / shard
        lines = path.read_text().splitlines(keepends=True)
        edit(lines)
        path.write_text("".join(lines))
        return str(directory), shard

    def _block_starts(self, spool):
        """Line numbers (1-based) opening each read block of the first
        shard."""
        shard = read_manifest(spool)["shards"][0]["name"]
        starts, first = [], 1
        with open(os.path.join(spool, shard), "rb") as handle:
            while lines := handle.readlines(_stream._BLOCK_BYTES):
                starts.append(first)
                first += len(lines)
        return starts

    def _refused_at(self, directory, shard, number):
        with pytest.raises(DocumentError) as caught:
            fold_stream(directory)
        assert f"{shard}:{number}:" in str(caught.value)
        return str(caught.value)

    def test_spool_spans_several_read_blocks(self, spool):
        assert len(self._block_starts(spool)) >= 3

    def _span_line(self, spool):
        """The number of the first span line past the first read block
        (so a line count restarted per block would misname it)."""
        shard = read_manifest(spool)["shards"][0]["name"]
        with open(os.path.join(spool, shard)) as handle:
            lines = handle.readlines()
        return next(number for number in range(
            self._block_starts(spool)[1], len(lines) + 1)
            if json.loads(lines[number - 1])["k"] == "s")

    def _refuse_record(self, spool, tmp_path, change):
        """Fold a copy whose span line ``_span_line`` names is replaced
        by ``change(record)``; the message naming that line."""
        number = self._span_line(spool)

        def edit(lines):
            lines[number - 1] = change(json.loads(lines[number - 1])) + "\n"
        return self._refused_at(*self._rewritten(spool, tmp_path, edit),
                                number)

    def test_scalar_line(self, spool, tmp_path):
        self._refuse_record(spool, tmp_path, lambda record: "5")

    def test_record_without_kind(self, spool, tmp_path):
        def change(record):
            del record["k"]
            return encode_compact(record)
        assert "'k'" in self._refuse_record(spool, tmp_path, change)

    def test_span_without_t0(self, spool, tmp_path):
        def change(record):
            del record["t0"]
            return encode_compact(record)
        assert "'t0'" in self._refuse_record(spool, tmp_path, change)

    def test_span_without_t1_is_refused_by_the_validator_too(
            self, spool, tmp_path, capsys):
        from repro.obs.validate import main as validate_main

        number = self._span_line(spool)

        def edit(lines):
            record = json.loads(lines[number - 1])
            del record["t1"]
            lines[number - 1] = encode_compact(record) + "\n"
        directory, shard = self._rewritten(spool, tmp_path, edit)
        self._refused_at(directory, shard, number)
        assert validate_main([os.path.join(directory, shard)]) == 1
        assert f"{shard}:{number}: 's' record missing 't1'" in \
            capsys.readouterr().err

    def test_unknown_kind(self, spool, tmp_path):
        def change(record):
            record["k"] = "z"
            return encode_compact(record)
        assert "unknown record kind 'z'" in self._refuse_record(
            spool, tmp_path, change)

    def test_line_that_is_not_utf8(self, spool, tmp_path):
        directory, shard = self._rewritten(spool, tmp_path, lambda _: None)
        number = self._span_line(spool)
        path = os.path.join(directory, shard)
        with open(path, "rb") as handle:
            lines = handle.readlines()
        lines[number - 1] = lines[number - 1].replace(b'"k"', b'"\xff"')
        with open(path, "wb") as handle:
            handle.writelines(lines)
        self._refused_at(directory, shard, number)

    def test_malformed_span_of_an_unresolved_rsr(self, spool, tmp_path):
        # With its ``r`` line gone, the RSR is folded at end of stream.
        rsrs = []

        def edit(lines):
            index = next(index for index, line in enumerate(lines)
                         if json.loads(line)["k"] == "s"
                         and json.loads(line)["rsr"] > 0)
            record = json.loads(lines[index])
            record["id"] = [record["id"]]
            lines[index] = encode_compact(record) + "\n"
            rsrs.append(record["rsr"])
            resolved = encode_compact({"k": "r", "rsr": record["rsr"]})
            lines.remove(resolved + "\n")
        directory, _shard = self._rewritten(spool, tmp_path, edit)
        with pytest.raises(DocumentError) as caught:
            fold_stream(directory)
        assert f"unresolved RSR {rsrs[0]}" in str(caught.value)

    def test_two_records_on_one_line(self, spool, tmp_path):
        # The block still decodes, one record longer than its lines.
        def edit(lines):
            lines[9:11] = [lines[9].rstrip("\n") + "," + lines[10]]
        self._refused_at(*self._rewritten(spool, tmp_path, edit), 10)

    def test_blank_line(self, spool, tmp_path):
        def edit(lines):
            lines.insert(11, "\n")
        self._refused_at(*self._rewritten(spool, tmp_path, edit), 12)

    def test_torn_line_mid_block(self, spool, tmp_path):
        starts = self._block_starts(spool)
        number = (starts[1] + starts[2]) // 2

        def edit(lines):
            lines[number - 1] = lines[number - 1][:16] + "\n"
        self._refused_at(*self._rewritten(spool, tmp_path, edit), number)

    def test_torn_line_opening_a_later_block(self, spool, tmp_path):
        number = self._block_starts(spool)[1]

        def edit(lines):
            lines[number - 1] = lines[number - 1][:16] + "\n"
        self._refused_at(*self._rewritten(spool, tmp_path, edit), number)

    def test_blocks_read_what_lines_read(self, spool):
        expected = []
        for shard in read_manifest(spool)["shards"]:
            with open(os.path.join(spool, shard["name"])) as handle:
                expected += [json.loads(line) for line in handle]
        assert list(iter_records(spool)) == expected


class TestParentCycle:
    """A spooled span that names itself as its parent makes the critical
    path's leaf-to-root walk meet a cycle: the fold refuses it as a
    ``DocumentError`` naming the RSR and its resolution record's
    ``shard:line``, in bounded memory, where it used to grow the step
    list until ``MemoryError``."""

    @pytest.fixture(scope="class")
    def spool(self, tmp_path_factory):
        directory, _result, _obs_ = run_streamed(
            tmp_path_factory.mktemp("cycle"), forwarding_scenario(), "spool")
        return directory

    def _looped(self, spool, tmp_path, resolved=True):
        """A copy of ``spool`` whose first forwarded ``dispatch`` span
        is its own parent: the directory, the RSR, and where it is
        resolved (its ``r`` line removed unless ``resolved``)."""
        directory = tmp_path / "copy"
        directory.mkdir()
        for name, data in shard_set(spool).items():
            (directory / name).write_bytes(data)
        for shard in read_manifest(str(directory))["shards"]:
            path = directory / shard["name"]
            lines = path.read_text().splitlines(keepends=True)
            records = [json.loads(line) for line in lines]
            forwarded = {record["rsr"] for record in records
                         if record["k"] == "s" and record["ph"] == "forward"}
            index = next((index for index, record in enumerate(records)
                          if record["k"] == "s" and record["ph"] == "dispatch"
                          and record["rsr"] in forwarded), None)
            if index is not None:
                break
        record = records[index]
        record["par"] = record["id"]
        lines[index] = encode_compact(record) + "\n"
        resolution = next(number for number, other
                          in enumerate(records, 1)
                          if other == {"k": "r", "rsr": record["rsr"]})
        if not resolved:
            del lines[resolution - 1]
        path.write_text("".join(lines))
        return str(directory), record["rsr"], (
            f"{path}:{resolution}" if resolved else None)

    def test_a_self_parented_span_is_refused_naming_rsr_and_shard(
            self, spool, tmp_path):
        directory, rsr, where = self._looped(spool, tmp_path)
        with pytest.raises(DocumentError) as caught:
            fold_stream(directory)
        assert str(caught.value).startswith(
            f"{where}: RSR {rsr}: span parent links form a cycle")

    def test_an_unresolved_self_parented_span_is_refused(self, spool,
                                                         tmp_path):
        directory, rsr, _where = self._looped(spool, tmp_path,
                                              resolved=False)
        with pytest.raises(DocumentError) as caught:
            fold_stream(directory)
        assert str(caught.value).startswith(
            f"{directory}: unresolved RSR {rsr}: span parent links form")


DEEP = settings.get_profile("deep")
#: The deep profile when it was asked for, the tier-1 budget otherwise.
PROFILE = (DEEP if settings.default is DEEP
           else settings(max_examples=60, deadline=None))

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner,
                                     max_size=3)),
    max_leaves=6)


def reference_records(paths):
    """Per-line ``json.loads`` over ``paths``: the records, or the
    ``(name, line)`` of the first line that does not decode."""
    records = []
    for path in paths:
        with open(path) as handle:
            for number, line in enumerate(handle, start=1):
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError:
                    return records, (os.path.basename(path), number)
    return records, None


class TestBlockDecoder:
    """``iter_records`` decodes a block of lines per ``json.loads``; it
    must read exactly what a per-line decode reads, and refuse the same
    line, whatever the block edges."""

    @PROFILE
    @given(shards=st.lists(st.lists(JSON_VALUES, min_size=1, max_size=12),
                           min_size=1, max_size=3),
           block_bytes=st.integers(1, 120),
           tear=st.none() | st.tuples(st.integers(0), st.integers(0),
                                      st.integers(0)))
    def test_blocks_equal_per_line_decode(self, shards, block_bytes, tear):
        with tempfile.TemporaryDirectory() as directory:
            paths = []
            for index, values in enumerate(shards):
                lines = [encode_compact(value) + "\n" for value in values]
                if tear is not None and tear[0] % len(shards) == index:
                    at = tear[1] % len(lines)
                    lines[at] = lines[at][:tear[2] % len(lines[at])]
                    if at + 1 < len(lines):
                        lines[at] += "\n"
                paths.append(os.path.join(directory, f"s{index}.jsonl"))
                with open(paths[-1], "w") as handle:
                    handle.writelines(lines)
            manifest = {"shards": [{"name": os.path.basename(path)}
                                   for path in paths]}
            expected, refused = reference_records(paths)
            got = []
            with mock.patch.object(_stream, "_BLOCK_BYTES", block_bytes):
                if refused is None:
                    got.extend(iter_records(directory, manifest))
                else:
                    with pytest.raises(DocumentError) as caught:
                        got.extend(iter_records(directory, manifest))
                    name, number = refused
                    assert f"{name}:{number}:" in str(caught.value)
            if refused is None:
                assert got == expected
            else:  # every block before the one at fault was yielded
                assert got == expected[:len(got)]


#: Span and record times: floats of every magnitude and plain ints.
TIMES = st.floats(allow_nan=False, allow_infinity=False) | st.integers()

#: ``attrs`` values: every JSON value ``json.dumps`` writes by default,
#: ``NaN`` and the infinities included.
ATTR_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner,
                                     max_size=3)),
    max_leaves=8)


def dense_contexts(records):
    """``records`` with raw ``ctx`` ids renumbered densely by first
    appearance, as the spool numbers them."""
    dense = {}
    for record in records:
        if record.get("ctx") is not None:
            record["ctx"] = dense.setdefault(record["ctx"], len(dense))
    return records


class TestSpooledEncoding:
    """The spool's line templates write what ``json.dumps(record,
    **COMPACT)`` writes, for every record kind and every field."""

    @PROFILE
    @given(attrs=st.none() | st.dictionaries(st.text(), JSON_VALUES,
                                             max_size=4),
           ids=st.tuples(st.integers(), st.integers(), st.integers()),
           par=st.none() | st.integers(),
           t0=TIMES, t1=st.none() | TIMES, number=TIMES,
           phase=st.text(), lane=st.text(),
           delivery_ctx=st.none() | st.integers())
    @example(attrs={"ünï": "çødé \u2603", "deep": {"a": [1, {"b": [None]}]},
                    "neg_zero": -0.0, "tiny": 1e-300, "big": 10 ** 40},
             ids=(1, 0, 41), par=None, t0=-0.0, t1=1e16, number=-0.0,
             phase="issue", lane="λ", delivery_ctx=41)
    @example(attrs={}, ids=(2, 3, 5), par=1, t0=1e-300, t1=None,
             number=1e-300, phase="wire", lane="tcp", delivery_ctx=None)
    @example(attrs={"n": -(2 ** 70)}, ids=(2 ** 64, 2 ** 64, -1),
             par=2 ** 64, t0=1e16, t1=2 ** 64, number=2 ** 64,
             phase='ph"\\\n\x00', lane="\ud800\t", delivery_ctx=7)
    @example(attrs=None, ids=(5, 9, 0), par=4, t0=0.5, t1=0.75,
             number=1e16, phase="issue", lane="mpl", delivery_ctx=3)
    def test_lines_equal_json_dumps(self, attrs, ids, par, t0, t1, number,
                                    phase, lane, delivery_ctx):
        span_id, rsr, ctx = ids
        span = Span(id=span_id, rsr=rsr, phase=phase, ctx=ctx, lane=lane,
                    start=t0, end=t1, parent=par, attrs=attrs)
        span_record = {"k": "s", "id": span_id, "rsr": rsr, "ph": phase,
                       "ctx": ctx, "lane": lane, "t0": t0, "t1": t1,
                       "par": par, "attrs": attrs}
        later = [{"k": "d", "rsr": 0, "t": number, "lane": lane,
                  "us": number, "ctx": delivery_ctx},
                 {"k": "x", "rsr": 0, "t": number, "lane": lane},
                 {"k": "r", "rsr": 7}]
        with tempfile.TemporaryDirectory() as directory:
            obs = Observability(Simulator(), enabled=True)
            spool = SpanSpool(StreamConfig(directory=directory)).attach(obs)
            if t1 is None:
                # Left open: finalize writes it after everything else.
                obs._open[span_id] = span
                expected = [*later, span_record]
            else:
                spool.record_span(span)
                expected = [span_record]
                if phase == "issue" and rsr > 0:
                    # No chain and no open span: the ledger resolves it.
                    expected.append({"k": "r", "rsr": rsr})
                expected += later
            spool.record_delivery(0, number, lane, number, delivery_ctx)
            spool.record_drop_event(0, number, lane)
            spool.rsr_resolved(7)
            spool.finalize()
            name = spool.shards[0]["name"]
            with open(os.path.join(directory, name)) as handle:
                lines = handle.read().splitlines()
        assert lines == [json.dumps(record, **COMPACT)
                         for record in dense_contexts(expected)]

    @staticmethod
    def _spool_attrs(directory, values):
        """Spool one closed span per ``attrs`` value (one block, so one
        encoder serves them all); the shard's lines."""
        obs = Observability(Simulator(), enabled=True)
        spool = SpanSpool(StreamConfig(directory=directory)).attach(obs)
        for number, attrs in enumerate(values, start=1):
            spool.record_span(Span(id=number, rsr=0, phase="wire", ctx=0,
                                   lane="tcp", start=0.5, end=0.75,
                                   parent=None, attrs=attrs))
        spool.finalize()
        with open(os.path.join(directory, spool.shards[0]["name"])) as fh:
            return fh.read().splitlines()

    @staticmethod
    def _expected(values):
        return [json.dumps({"k": "s", "id": number, "rsr": 0, "ph": "wire",
                            "ctx": 0, "lane": "tcp", "t0": 0.5, "t1": 0.75,
                            "par": None, "attrs": attrs}, **COMPACT)
                for number, attrs in enumerate(values, start=1)]

    @PROFILE
    @given(values=st.lists(st.dictionaries(st.text(), ATTR_VALUES,
                                           max_size=4),
                           min_size=1, max_size=6))
    @example(values=[{"ünï": "çødé ☃", "esc": 'q"\\\n\x00\ud800\t'},
                     {"big": 2 ** 64, "neg": -(2 ** 64), "neg_zero": -0.0,
                      "tiny": 1e-300, "e16": 1e16},
                     {"nan": float("nan"), "inf": float("inf"),
                      "ninf": float("-inf")},
                     {"t": True, "f": False, "none": None},
                     {"deep": {"a": [1, {"b": [None, [[], {}]]}]}}])
    def test_attrs_equal_json_dumps(self, values):
        with tempfile.TemporaryDirectory() as directory:
            lines = self._spool_attrs(directory, values)
        assert lines == self._expected(values)

    def test_unserialisable_attrs_raise_type_error(self):
        with tempfile.TemporaryDirectory() as directory, \
                pytest.raises(TypeError, match="not JSON serializable"):
            self._spool_attrs(directory, [{"ok": 1}, {"bad": object()}])

    def test_circular_attrs_raise_value_error(self):
        loop = {"a": []}
        loop["a"].append(loop)
        with tempfile.TemporaryDirectory() as directory, \
                pytest.raises(ValueError, match="Circular reference"):
            self._spool_attrs(directory, [loop])

    def test_a_failed_block_leaves_no_stale_marker(self):
        # A failed encode leaves the ids it was inside in its encoder's
        # circular-check markers.  The very same containers, mended,
        # must spool correctly afterwards, in a later spool.
        inner = [1, object()]
        attrs = {"inner": inner}
        with tempfile.TemporaryDirectory() as directory, \
                pytest.raises(TypeError):
            self._spool_attrs(directory, [attrs])
        inner.pop()
        values = [attrs, {"again": inner}, attrs]
        with tempfile.TemporaryDirectory() as directory:
            assert self._spool_attrs(directory, values) == \
                self._expected(values)


def reference_shards(lines, max_records, max_bytes):
    """The per-record writer a spool's rotation must equal: each line is
    written and hashed alone, and the shard closes after the record that
    reaches ``max_records`` or ``max_bytes``.  ``(manifest entry, bytes)``
    per shard."""
    shards = []
    data, ids = b"", []
    for line in lines:
        data += (line + "\n").encode("ascii")
        record = json.loads(line)
        if record["k"] == "s":
            ids.append(record["id"])
        if data.count(b"\n") >= max_records or len(data) >= max_bytes:
            shards.append((data, ids))
            data, ids = b"", []
    if data:
        shards.append((data, ids))
    return [({"name": SHARD_PATTERN.format(index),
              "records": data.count(b"\n"), "spans": len(ids),
              "span_id_min": min(ids) if ids else None,
              "span_id_max": max(ids) if ids else None,
              "bytes": len(data),
              "sha256": hashlib.sha256(data).hexdigest()}, data)
            for index, (data, ids) in enumerate(shards)]


LANES = st.sampled_from(("mpl", "tcp", "λ"))
#: Generated sink calls: span closes (never ``issue``, so the RSR
#: ledger adds no records of its own), deliveries, drops, resolutions.
RECORD_STREAMS = st.lists(st.one_of(
    st.tuples(st.just("s"), st.integers(0, 4),
              st.sampled_from(("marshal", "wire", "dispatch", "retry")),
              st.integers(0, 3), LANES, TIMES,
              st.none() | st.fixed_dictionaries(
                  {"nbytes": st.integers(0, 10 ** 6)})
              | st.just({"dropped": True})),
    st.tuples(st.just("d"), st.integers(0, 4), TIMES, LANES, TIMES,
              st.none() | st.integers(0, 3)),
    st.tuples(st.just("x"), st.integers(0, 4), TIMES, LANES),
    st.tuples(st.just("r"), st.integers(0, 4))), max_size=40)


class TestRotationOracle:
    """A spool writes blocks, yet its shards must end exactly where a
    per-record writer's end: same bytes, same manifest ``shards``
    entries, under ``max_records`` and ``max_bytes`` rotation, whatever
    the block size, sampled or not."""

    @PROFILE
    @given(calls=RECORD_STREAMS, max_records=st.integers(1, 8),
           max_bytes=st.integers(1, 600), block=st.integers(1, 7),
           policy=st.none() | st.integers(1, 3).map("reservoir:{}".format))
    @example(calls=[("s", 1, "wire", 0, "mpl", 0.5, None)] * 5,
             max_records=2, max_bytes=10 ** 6, block=3, policy=None)
    @example(calls=[("r", 1)] * 9, max_records=100, max_bytes=36,
             block=4, policy=None)
    def test_shards_equal_per_record_writer(self, calls, max_records,
                                            max_bytes, block, policy):
        expected_lines = []
        with tempfile.TemporaryDirectory() as directory, \
                mock.patch.object(_stream, "_WRITE_RECORDS", block):
            obs = Observability(Simulator(), enabled=True)
            spool = SpanSpool(StreamConfig(
                directory=directory, max_records=max_records,
                max_bytes=max_bytes, policy=policy, seed=5)).attach(obs)
            for number, call in enumerate(calls, start=1):
                kind, rsr = call[0], call[1]
                if kind == "s":
                    _, _, phase, ctx, lane, start, attrs = call
                    spool.record_span(Span(
                        id=number, rsr=rsr, phase=phase, ctx=ctx, lane=lane,
                        start=start, end=start, parent=number - 1,
                        attrs=attrs))
                    expected_lines.append(
                        {"k": "s", "id": number, "rsr": rsr, "ph": phase,
                         "ctx": ctx, "lane": lane, "t0": start, "t1": start,
                         "par": number - 1, "attrs": attrs})
                elif kind == "d":
                    _, _, now, lane, latency, ctx = call
                    spool.record_delivery(rsr, now, lane, latency, ctx)
                    expected_lines.append(
                        {"k": "d", "rsr": rsr, "t": now, "lane": lane,
                         "us": latency, "ctx": ctx})
                elif kind == "x":
                    _, _, now, lane = call
                    spool.record_drop_event(rsr, now, lane)
                    expected_lines.append(
                        {"k": "x", "rsr": rsr, "t": now, "lane": lane})
                else:
                    spool.rsr_resolved(rsr)
                    expected_lines.append({"k": "r", "rsr": rsr})
            manifest = spool.finalize()
            written = shard_set(directory)
        written.pop(MANIFEST_NAME)
        if policy is None:
            lines = [json.dumps(record, **COMPACT)
                     for record in dense_contexts(expected_lines)]
        else:  # the records the policy kept, split the per-record way
            lines = b"".join(written.values()).decode("ascii").splitlines()
        expected = reference_shards(lines, max_records, max_bytes)
        assert manifest["shards"] == [entry for entry, _data in expected]
        assert written == {entry["name"]: data for entry, data in expected}
