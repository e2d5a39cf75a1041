"""Command-line harness: regenerate the paper's tables and figures.

Usage::

    python -m repro.bench                 # everything
    python -m repro.bench figure4         # one artefact
    python -m repro.bench --record BENCH.json
    python -m repro.bench --trace trace.json --record out.json \\
        --baseline benchmarks/BENCH_baseline.json --check
    python -m repro.bench baselines --trace trace.json --profile --flame out.folded
    python -m repro.bench --jobs 4 --record BENCH.json
    python -m repro.bench --selfcheck     # run twice, cmp, validate
    python -m repro.bench --list

This is what produces every number EXPERIMENTS.md publishes, at the
size it publishes them, and every artefact asserts its shape criteria
on every run.  ``--record`` writes a deterministic
:class:`~repro.bench.record.BenchRecord` (``BENCH_<label>.json``),
``--baseline/--check`` diff it against a stored baseline and exit
non-zero on regression, and
``--profile``/``--flame`` aggregate the traced span log into a hot-path
table and a collapsed-stack flamegraph export.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
import typing as _t

from .. import obs as _obs
from ..util.report import hot_path_report
from . import ARTEFACTS, RunOptions, artefact
from .record import (
    KIND_COUNT,
    KIND_WALL,
    BenchRecord,
    compare_records,
    load_record,
)


def record_observability(record: BenchRecord, name: str,
                         runs: _t.Sequence[tuple[_t.Any, _t.Any]]) -> None:
    """Span/RSR totals for one artefact's traced runtimes."""
    if not runs:
        return
    record.add(name, "trace.runtimes", len(runs),
               unit="runtimes", kind=KIND_COUNT)
    record.add(name, "trace.spans",
               sum(len(obs.spans) for obs, _nexus in runs),
               unit="spans", kind=KIND_COUNT)
    record.add(name, "trace.rsrs_started",
               sum(obs.rsrs_started for obs, _nexus in runs),
               unit="rsrs", kind=KIND_COUNT)
    record.add(name, "trace.rsrs_finished",
               sum(obs.rsrs_finished for obs, _nexus in runs),
               unit="rsrs", kind=KIND_COUNT)


def build_parser() -> argparse.ArgumentParser:
    """The command line, as ``main`` parses it."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation artefacts.",
    )
    parser.add_argument("artefacts", nargs="*", metavar="ARTEFACT",
                        help=f"one of: {', '.join(ARTEFACTS)} "
                             "(default: all but the opt-in fleet tier)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run simulation artefacts across N worker "
                             "processes (repro.fleet); merged records "
                             "are byte-identical to --jobs 1")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="trace every RSR lifecycle and write a "
                             "Chrome trace-event JSON (load in Perfetto)")
    parser.add_argument("--record", metavar="PATH", default=None,
                        help="write the run's metrics as a deterministic "
                             "BENCH record (sorted-key JSON)")
    parser.add_argument("--record-wall", action="store_true",
                        help="include advisory wall-clock timings in the "
                             "record (makes it non-deterministic)")
    parser.add_argument("--baseline", metavar="PATH", default=None,
                        help="diff this run's record against a stored "
                             "baseline record and print the delta table")
    parser.add_argument("--check", action="store_true",
                        help="with --baseline: exit non-zero if any gated "
                             "metric regressed")
    parser.add_argument("--profile", action="store_true",
                        help="trace the run and print the top-N sim-time "
                             "hot-path table")
    parser.add_argument("--flame", metavar="PATH", default=None,
                        help="trace the run and write collapsed-stack "
                             "output (speedscope / flamegraph.pl)")
    parser.add_argument("--export-dir", metavar="DIR", default=None,
                        help="where the analysis artefact writes its "
                             "timeline/graph/critpath documents "
                             "(timeline.json, graph.json, graph.dot, "
                             "critpath.json) and the place artefact "
                             "writes its winning placement.json")
    parser.add_argument("--stream-dir", metavar="DIR", default=None,
                        help="spool the analysis artefact's spans to "
                             "sharded JSONL under DIR/chaos and "
                             "DIR/forward and rebuild the analysis "
                             "documents by folding the shards")
    parser.add_argument("--sample", metavar="POLICY", default=None,
                        help="with --stream-dir: sampling policy for the "
                             "spool (head:N, tail:N, head:N,tail:M, "
                             "reservoir:K; failure-evidence RSRs are "
                             "always kept)")
    parser.add_argument("--sample-seed", type=int, default=0,
                        metavar="SEED",
                        help="seed for reservoir sampling (default 0)")
    parser.add_argument("--mem-ceiling-mb", type=float, default=None,
                        metavar="MB",
                        help="run the artefacts under tracemalloc and "
                             "exit non-zero if peak traced allocation "
                             "exceeds MB mebibytes")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the selected artefacts in two fresh "
                             "interpreters (different PYTHONHASHSEEDs) "
                             "with --record/--trace/--export-dir, then "
                             "byte-compare and validate every file "
                             "they wrote")
    parser.add_argument("--list", action="store_true",
                        help="list artefacts and exit")
    return parser


def main(argv: _t.Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list:
        for name in ARTEFACTS:
            print(name)
        return 0
    if args.check and not args.baseline:
        parser.error("--check requires --baseline")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.jobs > 1:
        # Everything that depends on in-process state cannot fan out:
        # trace collection and tracemalloc are per-process, and the
        # fan-out ships workers only artefact names — no export or
        # spool directories.
        if args.trace or args.profile or args.flame:
            parser.error("--jobs cannot combine with "
                         "--trace/--profile/--flame (trace collection "
                         "is in-process)")
        if args.export_dir or args.stream_dir:
            parser.error("--jobs cannot combine with "
                         "--export-dir/--stream-dir (analysis export "
                         "state is per-process)")
        if args.mem_ceiling_mb is not None:
            parser.error("--jobs cannot combine with --mem-ceiling-mb "
                         "(tracemalloc is per-process)")

    if args.sample is not None and args.stream_dir is None:
        parser.error("--sample requires --stream-dir")

    if args.sample is not None:
        from ..obs.stream import parse_policy

        try:  # fail fast on a malformed spec, before benchmarking
            parse_policy(args.sample, args.sample_seed)
        except ValueError as exc:
            parser.error(str(exc))
    options = RunOptions(export_dir=args.export_dir,
                         stream_dir=args.stream_dir, sample=args.sample,
                         sample_seed=args.sample_seed)

    for name in args.artefacts:
        if name not in ARTEFACTS:
            parser.error(f"unknown artefact {name!r}; "
                         f"choose from {', '.join(ARTEFACTS)}")
    selected = args.artefacts or [name for name in ARTEFACTS
                                  if artefact(name).default]
    if args.jobs > 1 and "fleet" in selected:
        # Fleet workers are daemonic processes and cannot spawn the
        # nested pools the scaling artefact itself needs.
        parser.error("the fleet artefact measures its own worker "
                     "scaling; run it at --jobs 1")

    if args.selfcheck:
        if (args.record or args.trace or args.export_dir or args.baseline
                or args.jobs > 1):
            parser.error("--selfcheck picks its own --record/--trace/"
                         "--export-dir; pass only artefacts")
        from .selfcheck import selfcheck

        return selfcheck(selected)

    baseline = None
    if args.baseline:
        # Load up front: a missing, corrupt or other-version baseline
        # should fail before minutes of benchmarking, not after.
        try:
            baseline = load_record(args.baseline)
        except (OSError, ValueError) as exc:
            print(f"error: cannot use baseline {args.baseline}: {exc}",
                  file=sys.stderr)
            return 2

    record: BenchRecord | None = None
    if args.record or args.baseline:
        record = BenchRecord("bench")
    tracing = bool(args.trace or args.profile or args.flame)
    collected: list = []
    mem_peak_mb: float | None = None
    if args.mem_ceiling_mb is not None:
        import tracemalloc

        tracemalloc.start()
    if args.jobs > 1:
        from ..fleet.merge import FleetTaskError, merge_bench_outcomes
        from ..fleet.plan import BenchFanout, run_plan

        plan = BenchFanout(artefacts=tuple(selected))
        run = run_plan(plan, jobs=args.jobs)
        sink = record if record is not None else BenchRecord("fleet-merge")
        try:
            merged = merge_bench_outcomes(sink, run.outcomes)
        except FleetTaskError as exc:
            print(f"error: {exc}", file=sys.stderr)
            print(exc.remote_traceback, file=sys.stderr)
            return 1
        # Replay worker stdout in selection order (== task-key order),
        # so the transcript reads like the serial run regardless of
        # completion order; per-artefact wall is the worker's own.
        for result in merged:
            print(f"=== {result.name} ===")
            sys.stdout.write(result.stdout)
            if record is not None:
                record.add(result.name, "wall_s", result.wall_s,
                           unit="s", kind=KIND_WALL)
            print(f"[{result.name}: {result.wall_s:.1f}s wall]\n")
        print(f"[fleet: {len(merged)} artefact(s) at jobs={args.jobs}: "
              f"{run.wall_s:.1f}s wall]\n")
    else:
        for name in selected:
            print(f"=== {name} ===")
            started = time.perf_counter()
            with (_obs.collecting() if tracing
                  else contextlib.nullcontext([])) as runs:
                result, text = artefact(name).execute(options)
            print(text)
            collected.extend(runs)
            elapsed = time.perf_counter() - started
            if record is not None:
                record.extend(name, result.metrics())
                record_observability(record, name, runs)
                record.add(name, "wall_s", elapsed, unit="s",
                           kind=KIND_WALL)
            print(f"[{name}: {elapsed:.1f}s wall]\n")
    if args.mem_ceiling_mb is not None:
        import tracemalloc

        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        mem_peak_mb = peak / (1 << 20)
        print(f"memory: peak traced {mem_peak_mb:.1f} MiB "
              f"(ceiling {args.mem_ceiling_mb:.1f} MiB)")

    if args.trace:
        _obs.export.write_merged_chrome_trace(args.trace, collected)
        spans = sum(len(obs.spans) for obs, _nexus in collected)
        rsrs = sum(obs.rsrs_started for obs, _nexus in collected)
        print(f"trace: {spans} spans over {rsrs} RSRs from "
              f"{len(collected)} runtimes -> {args.trace}")
    if args.profile or args.flame:
        profile = _obs.perf.PerfProfile.from_runs(collected)
        if args.profile:
            print(hot_path_report(profile))
        if args.flame:
            profile.write_collapsed(args.flame)
            print(f"flame: {len(profile.collapsed_stacks())} stacks "
                  f"({profile.spans_profiled} spans) -> {args.flame}")
    if args.record:
        assert record is not None
        record.write(args.record, include_wall=args.record_wall)
        print(f"record: {len(record)} metrics -> {args.record}")
    if args.baseline:
        assert record is not None and baseline is not None
        comparison = compare_records(
            baseline, record.to_document(include_wall=True))
        print(comparison.render())
        if args.check and not comparison.ok:
            return 1
    if (mem_peak_mb is not None
            and mem_peak_mb > _t.cast(float, args.mem_ceiling_mb)):
        print(f"error: peak traced memory {mem_peak_mb:.1f} MiB exceeds "
              f"ceiling {args.mem_ceiling_mb:.1f} MiB", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
