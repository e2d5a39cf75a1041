"""Streaming telemetry: bounded-memory span spooling + incremental fold.

An :class:`~repro.obs.spans.Observability` hands every span to one
sink.  The default, :class:`~repro.obs.spans.SpanLog`, keeps every span
in memory up to ``max_spans`` — fine for the bench artefacts, untenable
at fleet scale, where the instrumentation must itself be designed like
a data path.  This module supplies the other sink and its reader:

* :class:`SpanSpool` — the sink that replaces the log and spools
  completed spans to sharded JSONL segments on disk.  Only the *open*
  spans and at most one block of records waiting to be written stay
  resident, so peak memory is bounded by in-flight work, not run
  length.  Shards rotate by record count and bytes, and a
  ``manifest.json`` records per-shard span-id ranges, record counts,
  and sha256 checksums plus an explicit lossiness ledger
  (``spans_opened == spans_emitted + spans_sampled_out +
  spans_dropped``).

* A seeded **sampling policy** (``reservoir:K`` per lane) decides,
  whole RSRs at a time, which span groups reach disk.  RSRs that carry
  failure evidence — retry/failover/probe spans, dropped or failed
  messages — are *always* kept, so chaos analysis never loses its
  witnesses.

* One reader of the shards, yielding each RSR's span group at its
  resolution record: :meth:`SpanSpool.rsr_groups`, so the span
  products read a spooled run as they read an in-memory one, and
  :func:`fold_stream`, a single-pass, bounded-working-set fold of a
  spool directory that also replays the timeline.  With sampling off
  both are **byte-identical** to the in-memory products: record order
  in the shards equals live call order, and the builders use
  order-free accumulators with canonical rank keys.

Context ids are process-global counters, so the spool renumbers them
densely by first emission — identical workloads spool byte-identical
shards even when other runtimes existed earlier in the process (the
same reason the graph/timeline exports renumber).  The manifest's
``contexts`` table is keyed by the dense ids.

Record kinds (one compact sorted-key JSON object per line, the bytes
``json.dumps(record, **COMPACT)`` writes; each kind has one fixed line
template, and a span's non-null ``attrs`` go through one C encoder per
written block, ``util.document.compact_encoder``):

``s``
    a span, written when it closes (or flushed open-ended at finalize
    with ``t1: null``): ``{k,id,rsr,ph,ctx,lane,t0,t1,par,attrs}``.
``d``
    an end-to-end delivery: ``{k,rsr,t,lane,us,ctx}``.
``x``
    a message drop: ``{k,rsr,t,lane}``.
``r``
    RSR resolution — every span closed and every send chain retired;
    the fold releases the RSR's working set here: ``{k,rsr}``.

Everything is keyed off the deterministic sim clock and per-run id
counters, so identical runs spool byte-identical shard sets — gated in
CI by ``cmp``.

Reading back is one ``json.loads`` per block of about 64 KiB of lines
(:func:`iter_records`); a torn or corrupt line, or one that decodes but
is no record (:func:`fold_stream`), raises
:class:`~repro.util.document.DocumentError` naming ``shard:line``.  The
read path makes no call per record beyond the span it rebuilds: groups
grow and the timeline replay buffers its values with ``list +=``, and
each replayed column is extended once per block.
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import itertools
import json
import operator
import os
import random
import time
import typing as _t
from json.encoder import encode_basestring_ascii

from ..util.document import (DocumentError, Schema, compact_encoder, load,
                             write)
from .critpath import CriticalPath, CritpathBuilder, ParentCycleError
from .graph import CommGraph, GraphBuilder
from .spans import (
    NEXUS_LANE,
    PHASE_FAILOVER,
    PHASE_ISSUE,
    PHASE_PROBE,
    PHASE_RETRY,
    PHASE_WIRE,
    Observability,
    Span,
)
from .timeline import Column, Timeline

MANIFEST_NAME = "manifest.json"
MANIFEST_SCHEMA = "repro.obs.stream.manifest"
MANIFEST_SCHEMA_VERSION = 1
SHARD_PATTERN = "shard-{:05d}.jsonl"

#: A fleet run's roll-up over per-task spool directories.
MERGED_MANIFEST_NAME = "manifest.merged.json"
MERGED_MANIFEST_SCHEMA = "repro.obs.stream.manifest.merged"
MERGED_MANIFEST_SCHEMA_VERSION = 1

#: Span phases whose presence marks an RSR as failure evidence — such
#: RSRs bypass every sampling policy.
FORCED_PHASES = frozenset((PHASE_RETRY, PHASE_FAILOVER, PHASE_PROBE))


class SpoolNotFinalizedError(RuntimeError):
    """A spool was read before :meth:`SpanSpool.finalize` ran."""


@dataclasses.dataclass(frozen=True)
class StreamConfig:
    """Where and how to spool spans.

    ``policy`` is a sampling spec (see :func:`parse_policy`) or ``None``
    to keep everything — only the keep-everything configuration carries
    the byte-parity guarantee for folded documents.
    """

    directory: str
    max_records: int = 50_000
    max_bytes: int = 8 << 20
    policy: str | None = None
    seed: int = 0


# -- sampling policies --------------------------------------------------------

class _Staged:
    """One RSR's records awaiting a sampling verdict."""

    __slots__ = ("items", "spans", "forced", "lane")

    def __init__(self) -> None:
        #: Block items (closed spans and record field tuples) in
        #: emission order.
        self.items: list = []
        self.spans = 0
        self.forced = False
        #: Transport lane classifying this RSR for per-lane reservoirs
        #: (first wire span's lane, else first delivery/drop lane).
        self.lane: str | None = None


class _Reservoir:
    """Per-lane reservoir of ``k`` RSRs (Algorithm R, seeded per lane)."""

    def __init__(self, k: int, seed: int) -> None:
        self.k = k
        self.seed = seed
        # lane -> [offered count, slots]
        self._lanes: dict[str, list] = {}
        self._rngs: dict[str, random.Random] = {}

    def offer(self, staged: _Staged) -> _Staged | None:
        """Stash ``staged`` or turn it away; return the RSR this offer
        leaves out of the sample (an evicted one, or ``staged``), if
        any."""
        lane = staged.lane or NEXUS_LANE
        bucket = self._lanes.get(lane)
        if bucket is None:
            bucket = self._lanes[lane] = [0, []]
            # Seeding from a string hashes via sha512 (stable across
            # processes), unlike Python's randomised str hash.
            self._rngs[lane] = random.Random(f"{self.seed}:{lane}")
        bucket[0] += 1
        slots: list[_Staged] = bucket[1]
        if len(slots) < self.k:
            slots.append(staged)
            return None
        j = self._rngs[lane].randrange(bucket[0])
        if j < self.k:
            evicted = slots[j]
            slots[j] = staged
            return evicted
        return staged

    def drain(self) -> _t.Iterator[_Staged]:
        for lane in sorted(self._lanes):
            yield from self._lanes[lane][1]
        self._lanes.clear()


def parse_policy(spec: str | None, seed: int = 0) -> _Reservoir | None:
    """Parse a sampling spec into a policy object (or ``None``).

    The one accepted form is ``reservoir:K``.  All decisions are made
    at whole-RSR granularity at resolution time; forced-keep classes
    bypass the policy entirely.
    """
    if spec is None or spec == "":
        return None
    if not spec.startswith("reservoir:"):
        raise ValueError(f"unknown sampling policy: {spec!r}")
    k = int(spec.partition(":")[2])
    if k <= 0:
        raise ValueError(f"reservoir size must be positive: {spec!r}")
    return _Reservoir(k, seed)


# -- the spool ----------------------------------------------------------------

#: Record kinds to their required fields (the format above, as checks).
SHARD_RECORD_FIELDS: dict[str, tuple[str, ...]] = {
    "s": ("id", "rsr", "ph", "ctx", "lane", "t0", "t1", "par", "attrs"),
    "d": ("rsr", "t", "lane", "us", "ctx"),
    "x": ("rsr", "t", "lane"),
    "r": ("rsr",),
}


def _validate_shard(lines: _t.Iterable[str],
                    path: str | None = None) -> dict[str, object]:
    """Validate a stream shard's JSONL records line by line."""
    name = os.path.basename(path) if path else "shard"
    counts = {kind: 0 for kind in SHARD_RECORD_FIELDS}
    for number, line in enumerate(lines, start=1):
        where = f"{name}:{number}"
        if not line.strip():
            raise DocumentError(f"{where}: blank line in shard")
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise DocumentError(
                f"{where}: not valid JSON: {error}") from error
        if not isinstance(record, dict):
            raise DocumentError(f"{where}: not an object")
        kind = record.get("k")
        fields = SHARD_RECORD_FIELDS.get(_t.cast(str, kind))
        if fields is None:
            raise DocumentError(f"{where}: unknown record kind {kind!r}")
        for field in fields:
            if field not in record:
                raise DocumentError(
                    f"{where}: {kind!r} record missing {field!r}")
        if not isinstance(record["rsr"], int):
            raise DocumentError(f"{where}: rsr must be an integer")
        counts[_t.cast(str, kind)] += 1
    if not any(counts.values()):
        raise DocumentError(f"{name}: shard holds no records")
    return {"records": sum(counts.values()),
            **{f"kind_{k}": v for k, v in counts.items()}}


def _is_forced(span: Span) -> bool:
    if span.phase in FORCED_PHASES:
        return True
    attrs = span.attrs
    return attrs is not None and ("dropped" in attrs or "failed" in attrs)


#: One line per record kind, keys in sorted order: ``json.dumps(record,
#: **COMPACT)`` for the values the spool writes (ints, Python floats,
#: ``None`` and JSON string literals made by :class:`_Quoted`).
_SPAN_LINE = ('{"attrs":%s,"ctx":%d,"id":%d,"k":"s","lane":%s,"par":%s,'
              '"ph":%s,"rsr":%d,"t0":%r,"t1":%s}\n')
_DELIVERY_LINE = '{"ctx":%s,"k":"d","lane":%s,"rsr":%d,"t":%r,"us":%r}\n'
_DROP_LINE = '{"k":"x","lane":%s,"rsr":%d,"t":%r}\n'
_RESOLVED_LINE = '{"k":"r","rsr":%d}\n'


class _Quoted(dict):
    """``text -> its JSON string literal``, quoted on first use."""

    def __missing__(self, text: str) -> str:
        quoted = self[text] = encode_basestring_ascii(text)
        return quoted


class SpanSpool:
    """Spools closed spans to sharded JSONL; the streaming sink.

    It shares :class:`~repro.obs.spans.SpanLog`'s sink protocol and
    takes its place: :meth:`attach` it to an :class:`Observability`
    *before* the run and call :meth:`finalize` after it ends.  A record
    costs an append to the pending block: a closed span waits as the
    :class:`Span` itself, any other record as a tuple of its line
    template and fields.  Every ``_WRITE_RECORDS`` records and at
    :meth:`finalize` the block is encoded in one pass, written and
    hashed, so the open spans plus at most one block stay resident
    (plus, under a sampling policy, the RSRs awaiting a verdict).
    Record order in the shards equals live call order, which is what
    makes the timeline fold byte-exact.  A finalized spool stays
    ``obs.sink``, so reports and the span products still read it.
    """

    #: Closed spans leave memory for disk, so there is no cap.
    closed = ()
    max_spans = float("inf")

    def __init__(self, config: StreamConfig) -> None:
        self.config = config
        self.directory = config.directory
        os.makedirs(self.directory, exist_ok=True)
        self._policy = parse_policy(config.policy, config.seed)
        self.obs: Observability | None = None
        self.shards: list[dict[str, object]] = []
        self._file: _t.IO[bytes] | None = None
        self._shard_name = ""
        self._sha: "hashlib._Hash | None" = None
        self._records = 0
        self._bytes = 0
        self._spans = 0
        self._id_min: int | None = None
        self._id_max: int | None = None
        #: Records not yet encoded, in live order, and how many more
        #: the block takes before it is written.
        self._block: list = []
        self._room = _WRITE_RECORDS
        self._names = _Quoted()
        self._staged: dict[int, _Staged] = {}
        #: Per-RSR ledger ``rsr -> [open_chains, issue_closed]``: an RSR
        #: resolves (its staging can flush) once its issue span closed,
        #: its chains ended and none of its spans is still open.
        self._live: dict[int, list] = {}
        #: Spans handed over at close (no longer in memory).
        self.released = 0
        # Raw (process-global) context id -> dense spool-local id,
        # assigned in live order of the records that carry it.
        self._ctx_map: dict[int, int] = {}
        #: Counted as blocks are written, so they lag the run by at most
        #: one block until :meth:`finalize`.
        self.records_written = 0
        self.bytes_written = 0
        self.spans_emitted = 0
        self.spans_sampled_out = 0
        self.rsrs_resolved = 0
        self.rsrs_kept = 0
        self.rsrs_sampled_out = 0
        self.deliveries = 0
        self.drops = 0
        self.peak_staged_rsrs = 0
        #: Wall-clock seconds spent encoding, writing and hashing blocks
        #: and closing the spool in :meth:`finalize` (self-metering;
        #: never written into byte-compared artifacts).
        self.wall_s = 0.0
        self.finalized = False
        self.manifest: dict[str, object] | None = None

    def attach(self, obs: Observability) -> "SpanSpool":
        """Make this spool ``obs``'s sink."""
        if obs.spans:
            raise ValueError(
                "cannot attach a stream sink to an Observability that "
                "already holds in-memory spans")
        if isinstance(obs.sink, SpanSpool):
            raise ValueError("a streaming sink is already attached")
        obs.sink = self
        self.obs = obs
        return self

    def overhead(self, opened: int) -> dict[str, object]:
        return {"spans_recorded": self.spans_emitted, "streaming": True,
                "spans_sampled_out": self.spans_sampled_out,
                "shards": len(self.shards)}

    def rsr_groups(self, open_spans: _t.Iterable[Span]
                   ) -> _t.Iterator[tuple[int, list[Span]]]:
        """The kept spans by RSR, read back from the shards (where
        :meth:`finalize` put ``open_spans``)."""
        if not self.finalized:
            raise SpoolNotFinalizedError(
                f"spool {self.directory!r} is not finalized yet")
        # (rsr, spans, resolved) -> (rsr, spans), without a Python call.
        return map(operator.itemgetter(0, 1), _read_groups(
            self.directory, _t.cast(dict, self.manifest),
            contexts=list(self._ctx_map)))

    # -- sink callbacks (called by Observability/MessageTrace) ---------------

    def _ctx(self, raw: int) -> int:
        dense = self._ctx_map.get(raw)
        if dense is None:
            dense = self._ctx_map[raw] = len(self._ctx_map)
        return dense

    def record_span(self, span: Span) -> None:
        self.released += 1
        ctx_map = self._ctx_map
        if span.ctx not in ctx_map:
            ctx_map[span.ctx] = len(ctx_map)
        if self._policy is None:
            self._block.append(span)
            self._room -= 1
            if self._room <= 0:
                self._write_block()
        else:
            self._route_span(span)
        rsr = span.rsr
        live = self._live
        if span.phase == PHASE_ISSUE and rsr > 0:
            if rsr in live:
                live[rsr][1] = True
            else:
                live[rsr] = [0, True]
        if rsr in live:
            state = live[rsr]
            if state[1] and not state[0]:
                self._settle(rsr)

    def _route_span(self, span: Span) -> None:
        self._route(span.rsr, span, span=True, forced=_is_forced(span),
                    lane=span.lane if span.phase == PHASE_WIRE else None)

    def chain_begin(self, rsr: int) -> None:
        self._live.setdefault(rsr, [0, False])[0] += 1

    def chain_end(self, rsr: int) -> None:
        live = self._live
        if rsr in live:
            state = live[rsr]
            state[0] -= 1
            if state[1] and not state[0]:
                self._settle(rsr)

    def _settle(self, rsr: int) -> None:
        """Resolve ``rsr``, whose issue span closed and whose chains all
        ended, unless one of its spans is still open."""
        if not any(span.rsr == rsr for span in self.obs._open.values()):
            del self._live[rsr]
            self.rsr_resolved(rsr)

    def record_delivery(self, rsr: int, now: float, lane: str,
                        latency_us: float, ctx: int | None) -> None:
        self.deliveries += 1
        if ctx is None:
            dense: object = "null"
        else:
            ctx_map = self._ctx_map
            if ctx not in ctx_map:
                ctx_map[ctx] = len(ctx_map)
            dense = ctx_map[ctx]
        item = (_DELIVERY_LINE, dense, self._names[lane], rsr, now,
                latency_us)
        if self._policy is None:
            self._block.append(item)
            self._room -= 1
            if self._room <= 0:
                self._write_block()
        else:
            self._route(rsr, item, lane=lane)
        self.chain_end(rsr)

    def record_drop_event(self, rsr: int, now: float, lane: str) -> None:
        self.drops += 1
        item = (_DROP_LINE, self._names[lane], rsr, now)
        if self._policy is None:
            self._block.append(item)
            self._room -= 1
            if self._room <= 0:
                self._write_block()
        else:
            self._route(rsr, item, forced=True, lane=lane)
        self.chain_end(rsr)

    def rsr_resolved(self, rsr: int) -> None:
        self.rsrs_resolved += 1
        item = (_RESOLVED_LINE, rsr)
        if self._policy is None:
            self.rsrs_kept += 1
            self._block.append(item)
            self._room -= 1
            if self._room <= 0:
                self._write_block()
            return
        staged = self._staged.pop(rsr, None)
        if staged is None:
            staged = _Staged()
        staged.items.append(item)
        if staged.forced:
            self._extend(staged.items)
            self.rsrs_kept += 1
        else:
            victim = self._policy.offer(staged)
            if victim is not None:
                self._discard(victim)

    # -- internals -----------------------------------------------------------

    def _route(self, rsr: int, item: object, *, span: bool = False,
               forced: bool = False, lane: str | None = None) -> None:
        """Stage a sampled run's record with its RSR (straight to the
        block for records of no RSR)."""
        if rsr <= 0:
            self._extend((item,))
            return
        staged = self._staged.get(rsr)
        if staged is None:
            staged = self._staged[rsr] = _Staged()
            if len(self._staged) > self.peak_staged_rsrs:
                self.peak_staged_rsrs = len(self._staged)
        staged.items.append(item)
        if span:
            staged.spans += 1
        if forced:
            staged.forced = True
        if lane is not None and staged.lane is None:
            staged.lane = lane

    def _extend(self, items: _t.Sequence[object]) -> None:
        """Append records to the block, writing it once it is full."""
        self._block += items
        self._room -= len(items)
        if self._room <= 0:
            self._write_block()

    def _discard(self, staged: _Staged) -> None:
        self.spans_sampled_out += staged.spans
        self.rsrs_sampled_out += 1

    def _open_shard(self) -> None:
        self._shard_name = SHARD_PATTERN.format(len(self.shards))
        self._file = open(os.path.join(self.directory, self._shard_name),
                          "wb")
        self._sha = hashlib.sha256()
        self._records = self._bytes = self._spans = 0
        self._id_min = self._id_max = None

    def _close_shard(self) -> None:
        if self._file is None:
            return
        self._file.close()
        self._file = None
        assert self._sha is not None
        self.shards.append({
            "name": self._shard_name,
            "records": self._records,
            "spans": self._spans,
            "span_id_min": self._id_min,
            "span_id_max": self._id_max,
            "bytes": self._bytes,
            "sha256": self._sha.hexdigest(),
        })

    def _write_block(self) -> None:
        """Encode the pending block in one pass and write it.

        A shard closes after the record that reaches ``max_records`` or
        ``max_bytes``, exactly as if each record were written alone, so
        a block is written and hashed in one piece per shard it reaches.
        """
        block = self._block
        if not block:
            return
        started = time.perf_counter()
        self._block = []
        self._room = _WRITE_RECORDS
        ctx_map, names = self._ctx_map, self._names
        # Dropped with the block, so a failed encode's stale ``markers``
        # never meet another block's values.
        encode = compact_encoder()
        lines = [
            item[0] % item[1:] if item.__class__ is tuple
            else _SPAN_LINE % (
                "null" if item.attrs is None
                else "".join(encode(item.attrs, 0)),
                ctx_map[item.ctx], item.id, names[item.lane],
                "null" if item.parent is None else item.parent,
                names[item.phase], item.rsr, item.start,
                "null" if item.end is None else item.end)
            for item in block]
        # Every line is ASCII, so its length is its size in bytes.
        ends = list(itertools.accumulate(map(len, lines)))
        max_records, max_bytes = self.config.max_records, self.config.max_bytes
        count = len(lines)
        start = 0
        while start < count:
            if self._file is None:
                self._open_shard()
            assert self._file is not None and self._sha is not None
            base = ends[start - 1] if start else 0
            # One past the record that reaches either limit.
            cut = min(start + max(max_records - self._records, 1),
                      bisect.bisect_left(ends, max_bytes - self._bytes + base,
                                         start) + 1)
            full = cut <= count
            if not full:
                cut = count
            data = "".join(lines[start:cut]).encode("ascii")
            self._file.write(data)
            self._sha.update(data)
            size = ends[cut - 1] - base
            self._records += cut - start
            self._bytes += size
            self.records_written += cut - start
            self.bytes_written += size
            ids = [item.id for item in block[start:cut]
                   if item.__class__ is not tuple]
            if ids:
                self._spans += len(ids)
                self.spans_emitted += len(ids)
                low, high = min(ids), max(ids)
                if self._id_min is None or low < self._id_min:
                    self._id_min = low
                if self._id_max is None or high > self._id_max:
                    self._id_max = high
            if full:
                self._close_shard()
            start = cut
        self.wall_s += time.perf_counter() - started

    # -- finalize ------------------------------------------------------------

    def finalize(self, *,
                 contexts: _t.Mapping[int, tuple[str, str]] | None = None,
                 meta: _t.Mapping[str, object] | None = None
                 ) -> dict[str, object]:
        """Flush everything still pending and write the manifest.

        Spans still open at the end of the run are emitted open-ended
        (``t1: null``) in span-id order; RSRs that never resolved are
        kept wholesale (in-flight evidence is evidence), without an
        ``r`` record — the fold picks them up at end-of-stream.
        """
        if self.finalized:
            return _t.cast(dict, self.manifest)
        obs = _t.cast(Observability, self.obs)
        for span in obs._open.values():  # in id order
            self._ctx(span.ctx)
            if self._policy is None:
                self._extend((span,))
            else:
                self._route_span(span)
        for rsr in sorted(self._staged):
            self._extend(self._staged[rsr].items)
            self.rsrs_kept += 1
        self._staged.clear()
        if self._policy is not None:
            for staged in self._policy.drain():
                self._extend(staged.items)
                self.rsrs_kept += 1
        self._write_block()
        started = time.perf_counter()
        self._close_shard()
        manifest: dict[str, object] = {
            "schema": MANIFEST_SCHEMA,
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "policy": self.config.policy,
            "seed": self.config.seed,
            "max_records": self.config.max_records,
            "max_bytes": self.config.max_bytes,
            "shards": self.shards,
            "totals": {
                "records": self.records_written,
                "spans_opened": obs._next_span - 1,
                "spans_emitted": self.spans_emitted,
                "spans_sampled_out": self.spans_sampled_out,
                "spans_dropped": obs.dropped_spans,
                "rsrs_started": obs.rsrs_started,
                "rsrs_resolved": self.rsrs_resolved,
                "rsrs_kept": self.rsrs_kept,
                "rsrs_sampled_out": self.rsrs_sampled_out,
                "deliveries": self.deliveries,
                "drops": self.drops,
            },
            "contexts": ({str(self._ctx_map[cid]): list(pair)
                          for cid, pair in sorted(contexts.items())
                          if cid in self._ctx_map}
                         if contexts else None),
            "timeline": ({"interval_s": obs.timeline.interval,
                          "bounds": list(obs.timeline.bounds),
                          "max_windows": obs.timeline.max_windows}
                         if obs.timeline is not None else None),
            "meta": dict(meta) if meta else {},
        }
        write(os.path.join(self.directory, MANIFEST_NAME), manifest,
              indent=1)
        self.finalized = True
        self.manifest = manifest
        self.wall_s += time.perf_counter() - started
        return manifest

    def summary(self) -> dict[str, object]:
        """Deterministic spool summary (for reports and LoadResult)."""
        return {
            "directory": self.directory,
            "shards": len(self.shards),
            "records": self.records_written,
            "bytes_written": self.bytes_written,
            "peak_open_spans": _t.cast(Observability, self.obs).peak_spans,
            "spans_emitted": self.spans_emitted,
            "spans_sampled_out": self.spans_sampled_out,
            "rsrs_kept": self.rsrs_kept,
            "rsrs_sampled_out": self.rsrs_sampled_out,
            "policy": self.config.policy,
        }


# -- reading & folding --------------------------------------------------------

def read_manifest(directory: str) -> dict[str, object]:
    """The spool's manifest, structurally checked (schema, version,
    ledger, shard sums); shard checksums are the validator CLI's job."""
    return load(os.path.join(directory, MANIFEST_NAME), MANIFEST_SCHEMA)


def merge_spool_manifests(root: str,
                          spools: _t.Mapping[str, str]
                          ) -> dict[str, object]:
    """Roll per-task spool manifests up into one merged document.

    ``spools`` maps task key to that task's spool directory, given
    relative to ``root`` (fleet plans use the key's slug).  The merged
    document is keyed and ordered by task key and records only relative
    paths, so two fleet runs of the same plan — at any parallelism, in
    any output root — produce byte-identical merged manifests; each
    task's shard checksums carry the content identity of its spool.
    """
    tasks: dict[str, object] = {}
    totals: dict[str, int] = {}
    shard_count = 0
    for key in sorted(spools):
        subdir = spools[key]
        if os.path.isabs(subdir):
            raise ValueError(
                f"spool path for task {key!r} must be relative to the "
                f"merge root, got {subdir!r}")
        manifest = read_manifest(os.path.join(root, subdir))
        task_totals = _t.cast("dict[str, int]", manifest["totals"])
        for name, value in task_totals.items():
            totals[name] = totals.get(name, 0) + int(value)
        shards = _t.cast(list, manifest["shards"])
        shard_count += len(shards)
        tasks[key] = {
            "directory": subdir.replace(os.sep, "/"),
            "policy": manifest.get("policy"),
            "seed": manifest.get("seed"),
            "shards": shards,
            "totals": task_totals,
        }
    return {
        "schema": MERGED_MANIFEST_SCHEMA,
        "schema_version": MERGED_MANIFEST_SCHEMA_VERSION,
        "tasks": tasks,
        "totals": dict(sorted(totals.items())),
        "task_count": len(tasks),
        "shard_count": shard_count,
    }


def write_merged_manifest(root: str, document: _t.Mapping[str, object]
                          ) -> str:
    """Write a merged manifest at its canonical name under ``root``."""
    path = os.path.join(root, MERGED_MANIFEST_NAME)
    write(path, document, indent=1)
    return path


def _validate_manifest(document: _t.Mapping[str, object],
                       path: str | None = None) -> dict[str, object]:
    """Structural + invariant checks over a stream-spool manifest.

    With ``path`` every listed shard is also cross-checked against the
    file beside the manifest: existence, byte length, sha256, and
    record count.
    """
    shards = document.get("shards")
    totals = document.get("totals")
    if not isinstance(shards, list) or not isinstance(totals, dict):
        raise DocumentError("shards/totals sections missing")
    opened = totals.get("spans_opened")
    emitted = totals.get("spans_emitted")
    sampled = totals.get("spans_sampled_out")
    dropped = totals.get("spans_dropped")
    if not all(isinstance(v, int)
               for v in (opened, emitted, sampled, dropped)):
        raise DocumentError("lossiness totals must be integers")
    if opened != _t.cast(int, emitted) + _t.cast(int, sampled) \
            + _t.cast(int, dropped):
        raise DocumentError(
            f"lossiness ledger does not balance: {opened} opened != "
            f"{emitted} emitted + {sampled} sampled out + {dropped} dropped")
    shard_records = shard_spans = 0
    for index, shard in enumerate(shards):
        if not isinstance(shard, dict):
            raise DocumentError(f"shards[{index}] is not an object")
        for field in ("name", "records", "spans", "bytes", "sha256"):
            if field not in shard:
                raise DocumentError(f"shards[{index}] missing {field!r}")
        shard_records += _t.cast(int, shard["records"])
        shard_spans += _t.cast(int, shard["spans"])
        if path is not None:
            _verify_shard(os.path.dirname(path), shard)
    if shard_records != totals.get("records"):
        raise DocumentError("shard record counts do not sum to totals")
    if shard_spans != emitted:
        raise DocumentError("shard span counts do not sum to spans_emitted")
    return {"shards": len(shards), "records": shard_records,
            "spans_emitted": _t.cast(int, emitted),
            "spans_sampled_out": _t.cast(int, sampled),
            "spans_dropped": _t.cast(int, dropped),
            "verified": path is not None}


def _verify_shard(directory: str, shard: _t.Mapping[str, object]) -> None:
    """One manifest entry against the shard file on disk."""
    try:
        with open(os.path.join(directory, _t.cast(str, shard["name"])),
                  "rb") as handle:
            data = handle.read()
    except OSError as error:
        raise DocumentError(
            f"shard {shard['name']!r} unreadable: {error}") from error
    if len(data) != shard["bytes"]:
        raise DocumentError(f"shard {shard['name']!r} is {len(data)} bytes "
                            f"on disk, manifest says {shard['bytes']}")
    if hashlib.sha256(data).hexdigest() != shard["sha256"]:
        raise DocumentError(f"shard {shard['name']!r} sha256 mismatch "
                            "(corrupt or rewritten)")
    lines = data.count(b"\n")
    if lines != shard["records"]:
        raise DocumentError(f"shard {shard['name']!r} holds {lines} records, "
                            f"manifest says {shard['records']}")


def _validate_merged_manifest(document: _t.Mapping[str, object],
                              path: str | None = None
                              ) -> dict[str, object]:
    """Structural + invariant checks over a merged fleet manifest.

    Each per-task section must itself satisfy the single-spool manifest
    invariants (lossiness ledger, shard sums), the roll-up totals must
    equal the sum of the task totals, and — with ``path``, the merged
    manifest in its merge root — every task's shard files are
    cross-checked on disk.
    """
    tasks = document.get("tasks")
    totals = document.get("totals")
    if not isinstance(tasks, dict) or not isinstance(totals, dict):
        raise DocumentError("tasks/totals sections missing")
    if document.get("task_count") != len(tasks):
        raise DocumentError(f"task_count {document.get('task_count')!r} "
                            f"does not match {len(tasks)} tasks")
    summed: dict[str, int] = {}
    shard_count = 0
    for key in tasks:
        task = tasks[key]
        if not isinstance(task, dict):
            raise DocumentError(f"task {key!r} is not an object")
        for field in ("directory", "shards", "totals"):
            if field not in task:
                raise DocumentError(f"task {key!r} missing {field!r}")
        subdir = _t.cast(str, task["directory"])
        if os.path.isabs(subdir):
            raise DocumentError(
                f"task {key!r} records an absolute spool path {subdir!r}")
        # A task section has a spool manifest's shards/totals layout.
        _validate_manifest(
            task, None if path is None else os.path.join(
                os.path.dirname(path), subdir, MANIFEST_NAME))
        shard_count += len(_t.cast(list, task["shards"]))
        for name, value in _t.cast(dict, task["totals"]).items():
            summed[name] = summed.get(name, 0) + int(value)
    if document.get("shard_count") != shard_count:
        raise DocumentError(
            f"shard_count {document.get('shard_count')!r} does not match "
            f"{shard_count} listed shards")
    for name, value in summed.items():
        if totals.get(name) != value:
            raise DocumentError(f"totals.{name} is {totals.get(name)!r}, "
                                f"task sections sum to {value}")
    return {"tasks": len(tasks), "shards": shard_count,
            "records": summed.get("records", 0),
            "spans_emitted": summed.get("spans_emitted", 0),
            "verified": path is not None}


#: Records a spool encodes, writes and hashes at a time
#: (:meth:`SpanSpool._write_block`); a sampled RSR's records join the
#: block together, so a block can hold a few more.
_WRITE_RECORDS = 512
#: Bytes of shard lines read per block (``readlines`` hint); a block is
#: at least one line.
_BLOCK_BYTES = 64 << 10


def _decode_block(lines: list[bytes], where: str, first: int) -> list:
    """The records on ``lines`` (line ``first`` on, of shard ``where``).

    One ``json.loads`` decodes the whole block as an array.  A torn or
    corrupt line either breaks that array or changes its length, and
    then the block is decoded again line by line, so the error names the
    line at fault.  (Several lines altered in concert could still add up
    to one record per line; proving a shard unaltered is the manifest
    checksums' job, which ``python -m repro.obs.validate`` checks.)
    """
    try:
        records = json.loads(b"[" + b",".join(lines) + b"]")
    except ValueError:  # JSONDecodeError, or UnicodeDecodeError
        pass
    else:
        if len(records) == len(lines):
            return records
    records = []
    for number, line in enumerate(lines, start=first):
        try:
            records.append(json.loads(line))
        except ValueError as error:
            raise DocumentError(
                f"{where}:{number}: torn or corrupt shard line: "
                f"{error}") from error
    return records


def _record_blocks(directory: str, manifest: _t.Mapping[str, object]
                   ) -> _t.Iterator[tuple[str, int, list]]:
    """``(shard path, first line number, records)`` per block of lines,
    across the shard set in spooled order."""
    for shard in _t.cast(list, manifest["shards"]):
        with open(os.path.join(directory, shard["name"]), "rb") as fh:
            first = 1
            while lines := fh.readlines(_BLOCK_BYTES):
                yield fh.name, first, _decode_block(lines, fh.name, first)
                first += len(lines)


def iter_records(directory: str,
                 manifest: _t.Mapping[str, object] | None = None
                 ) -> _t.Iterator[dict[str, _t.Any]]:
    """All records across the shard set, in spooled order.

    Shards are read in blocks of about 64 KiB of lines, each decoded by
    one ``json.loads``; the records equal a per-line ``json.loads``, and
    a torn or corrupt line raises :class:`DocumentError` naming
    ``shard:line``.
    """
    if manifest is None:
        manifest = read_manifest(directory)
    for _where, _first, records in _record_blocks(directory, manifest):
        yield from records


def _read_groups(directory: str, manifest: _t.Mapping[str, object],
                 timeline: Timeline | None = None,
                 contexts: _t.Sequence[int] | None = None
                 ) -> _t.Iterator[tuple[int, list[Span], str | None, int]]:
    """``(rsr, spans, shard, line)`` per RSR group of a spool, one pass:
    at its ``r`` record, on ``shard`` (a path) at ``line``, or
    unresolved (``shard`` is ``None``) at end of stream in ascending RSR
    order.  ``contexts`` maps the dense context ids back to the run's;
    with ``timeline`` the live hooks' appends are replayed into it on
    the way.  A shard line that decodes but is not a spooled record
    raises :class:`DocumentError` naming ``shard:line``."""
    pending: dict[int, list[Span]] = {}
    # The live hooks' appends (Observability.close_span, rsr_begin,
    # MessageTrace.finish/drop), replayed into one plain list per column
    # that extends its column once per block.  Columns are resolved on
    # first touch, so they are created in the order the live run created
    # them.  ``list += (a, b)`` grows a list without a call, and
    # ``x - 0.0`` (the identity on every float, ``-0.0`` included)
    # refuses on its own line a value no column would hold.
    buffers: list[tuple[Column, list[float]]] = []
    by_column: dict[int, list[float]] = {}

    def buffer(column: Column) -> list[float]:
        """``column``'s list (one per column: lanes share ``all``)."""
        if id(column) not in by_column:
            by_column[id(column)] = values = []
            buffers.append((column, values))
        return by_column[id(column)]

    phase_buffers: dict[tuple[str, str], list[float]] = {}
    lane_buffers: dict[str, tuple[list[float], list[float],
                                  list[float]]] = {}
    rank_buffers: dict[int, list[float]] = {}
    drop_buffers: dict[str, list[float]] = {}
    issued: list[float] | None = None
    for where, first, records in _record_blocks(directory, manifest):
        for number, rec in enumerate(records, first):
            try:
                kind = rec["k"]
                if kind == "s":
                    ctx = rec["ctx"]
                    span = Span(id=rec["id"], rsr=rec["rsr"],
                                phase=rec["ph"], lane=rec["lane"],
                                ctx=ctx if contexts is None
                                else contexts[ctx],
                                start=rec["t0"], end=rec["t1"],
                                parent=rec["par"], attrs=rec["attrs"])
                    rsr = span.rsr
                    if rsr in pending:
                        pending[rsr] += (span,)
                    else:
                        pending[rsr] = [span]
                    if timeline is not None:
                        end = span.end
                        if end is not None:
                            key = (span.phase, span.lane)
                            if key not in phase_buffers:
                                phase_buffers[key] = buffer(
                                    timeline.phase_column(*key))
                            phase_buffers[key] += (
                                end, (end - span.start) * 1e6)
                        if span.phase == PHASE_ISSUE:
                            if issued is None:
                                issued = buffer(timeline.issued_column())
                            issued += (span.start - 0.0, 1.0)
                elif kind == "d":
                    if timeline is not None:
                        now = rec["t"] - 0.0
                        latency_us = rec["us"] - 0.0
                        lane = rec["lane"]
                        if lane not in lane_buffers:
                            method, merged, count = \
                                timeline.delivery_columns(lane)
                            lane_buffers[lane] = (buffer(method),
                                                  buffer(merged),
                                                  buffer(count))
                        latency, latency_all, delivered = lane_buffers[lane]
                        latency += (now, latency_us)
                        latency_all += (now, latency_us)
                        delivered += (now, 1.0)
                        ctx = rec["ctx"]
                        if ctx is not None:
                            if ctx not in rank_buffers:
                                rank_buffers[ctx] = buffer(
                                    timeline.rank_column(ctx))
                            rank_buffers[ctx] += (now, 1.0)
                elif kind == "x":
                    if timeline is not None:
                        lane = rec["lane"]
                        if lane not in drop_buffers:
                            drop_buffers[lane] = buffer(
                                timeline.dropped_column(lane))
                        drop_buffers[lane] += (rec["t"] - 0.0, 1.0)
                elif kind == "r":
                    rsr = rec["rsr"]
                    spans = pending.pop(rsr, None)
                    if spans:
                        yield rsr, spans, where, number
                else:
                    raise DocumentError(
                        f"{where}:{number}: unknown record kind {kind!r}")
            except (KeyError, TypeError) as error:
                raise DocumentError(
                    f"{where}:{number}: malformed shard record "
                    f"({type(error).__name__}: {error})") from error
        for column, values in buffers:
            if values:
                column.extend(values)
                del values[:]
    for rsr in sorted(pending):
        yield rsr, pending.pop(rsr), None, 0


@dataclasses.dataclass
class StreamFold:
    """The analysis products of one single-pass fold over a stream."""

    manifest: dict[str, object]
    #: Replayed windowed telemetry — ``None`` when the stream was
    #: sampled (a partial replay would be silently wrong) or the run
    #: had no timeline attached.
    timeline: Timeline | None
    graph: CommGraph
    paths: list[CriticalPath]
    #: RSRs folded at end-of-stream without a resolution record (the
    #: run ended with them in flight).
    unresolved_rsrs: int


def fold_stream(directory: str, *, top_k: int | None = None) -> StreamFold:
    """Rebuild timeline/graph/critpath documents from spooled shards.

    Single pass, bounded working set: the spool's RSR groups (the reader
    :meth:`SpanSpool.rsr_groups` uses) go into the graph and
    critical-path builders as each is released, and the timeline is
    replayed on the same pass.  A record or span that cannot be folded
    raises :class:`DocumentError`, and so does a group whose parent
    links form a cycle (naming the ``shard:line`` of its RSR's
    resolution record when it has one).
    """
    manifest = read_manifest(directory)
    tl_conf = _t.cast("dict | None", manifest.get("timeline"))
    timeline = None
    if tl_conf is not None and manifest.get("policy") is None:
        timeline = Timeline(tl_conf["interval_s"], bounds=tl_conf["bounds"],
                            max_windows=tl_conf.get("max_windows",
                                                    1_000_000))
    graph_builder = GraphBuilder()
    crit_builder = CritpathBuilder(top_k=top_k)
    unresolved = 0
    for rsr, spans, shard, line in _read_groups(directory, manifest,
                                                timeline):
        try:
            graph_builder.add_rsr(spans)
            crit_builder.add_rsr(rsr, spans)
        except (KeyError, TypeError) as error:
            raise DocumentError(
                f"{directory}: malformed span record of "
                f"{'unresolved ' if shard is None else ''}RSR {rsr} "
                f"({type(error).__name__}: {error})") from error
        except ParentCycleError as error:
            raise DocumentError(
                f"{directory}: unresolved {error}" if shard is None
                else f"{shard}:{line}: {error}") from error
        unresolved += shard is None
    totals = _t.cast(dict, manifest["totals"])
    graph_builder.dropped_spans = int(totals.get("spans_dropped", 0))
    names = {int(cid): (pair[0], pair[1]) for cid, pair
             in _t.cast(dict, manifest.get("contexts") or {}).items()}
    return StreamFold(manifest, timeline, graph_builder.finish(names=names),
                      crit_builder.finish(), unresolved)


DOCUMENT = Schema(MANIFEST_SCHEMA, MANIFEST_SCHEMA_VERSION,
                  _validate_manifest, "stream manifest")
MERGED_DOCUMENT = Schema(MERGED_MANIFEST_SCHEMA,
                         MERGED_MANIFEST_SCHEMA_VERSION,
                         _validate_merged_manifest,
                         "merged fleet manifest")
#: Shard files carry no ``schema`` key; the validator CLI recognises
#: them as "not one JSON value".
SHARD_DOCUMENT = Schema("repro.obs.stream.shard", None, _validate_shard,
                        "stream shard")


__all__ = [
    "DOCUMENT",
    "FORCED_PHASES",
    "MANIFEST_NAME",
    "MANIFEST_SCHEMA",
    "MANIFEST_SCHEMA_VERSION",
    "MERGED_DOCUMENT",
    "MERGED_MANIFEST_NAME",
    "MERGED_MANIFEST_SCHEMA",
    "MERGED_MANIFEST_SCHEMA_VERSION",
    "SHARD_DOCUMENT",
    "SHARD_PATTERN",
    "SpanSpool",
    "SpoolNotFinalizedError",
    "StreamConfig",
    "StreamFold",
    "fold_stream",
    "iter_records",
    "merge_spool_manifests",
    "parse_policy",
    "read_manifest",
    "write_merged_manifest",
]
