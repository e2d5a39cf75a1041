"""Fleet sweep CLI: fan a scenario plan across worker processes.

Usage::

    python -m repro.fleet --seeds 4 --jobs 2 --out merged.json
    python -m repro.fleet --rates 200,400,800 --jobs 4 \\
        --stream-dir spools --out merged.json
    python -m repro.fleet --scenario bursty --factors 0.5,1,2 --quick

One plan per invocation: ``--seeds N`` replicates the scenario across
derived seed substreams, ``--rates``/``--factors`` sweep a grid.  The
merged summary (``--out``) and the merged stream manifest
(``--stream-dir``) are ordered by task key and carry no timestamps or
absolute paths, so the same plan produces byte-identical documents at
any ``--jobs`` — CI runs the sweep twice and ``cmp``\\ s the outputs.
"""

from __future__ import annotations

import argparse
import sys
import typing as _t

from ..util.document import write
from .merge import merge_load_results
from .plan import ScenarioGrid, SeedReplication, key_slug, run_plan


def _parse_floats(text: str, *, flag: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part)
    except ValueError:
        raise SystemExit(f"error: {flag} expects comma-separated numbers, "
                         f"got {text!r}")
    if not values:
        raise SystemExit(f"error: {flag} names no values")
    return values


def main(argv: _t.Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet",
        description="Fan a load-scenario plan across worker processes "
                    "and merge the results deterministically.",
    )
    parser.add_argument("--scenario", default="steady",
                        help="base scenario from the bench load suite "
                             "(steady, bursty, chaos-flaky-tcp; "
                             "default steady)")
    parser.add_argument("--seeds", type=int, default=None, metavar="N",
                        help="replicate the scenario across N derived "
                             "seed substreams")
    parser.add_argument("--rates", default=None, metavar="R1,R2,...",
                        help="sweep the scenario at these total "
                             "open-loop offered rates")
    parser.add_argument("--factors", default=None, metavar="F1,F2,...",
                        help="sweep the scenario at these load scale "
                             "factors")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (1 = in-process serial)")
    parser.add_argument("--quick", action="store_true",
                        help="reduced scenario durations")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write the merged summary document here "
                             "(sorted-key JSON)")
    parser.add_argument("--stream-dir", metavar="DIR", default=None,
                        help="spool each task's spans under DIR/<key> "
                             "and write DIR's merged stream manifest")
    args = parser.parse_args(argv)

    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    shapes = sum(1 for flag in (args.seeds, args.rates, args.factors)
                 if flag is not None)
    if shapes == 0:
        parser.error("choose a plan: --seeds N, --rates ..., "
                     "or --factors ...")
    if args.seeds is not None and shapes > 1:
        parser.error("--seeds cannot combine with --rates/--factors")

    from ..bench.load import scenarios

    suite = scenarios(quick=args.quick)
    base = suite.get(args.scenario)
    if base is None:
        parser.error(f"unknown scenario {args.scenario!r}; choose from "
                     f"{', '.join(suite)}")

    if args.seeds is not None:
        if args.seeds < 1:
            parser.error("--seeds must be >= 1")
        plan = SeedReplication(name=args.scenario, base=base,
                               replicas=args.seeds,
                               stream_root=args.stream_dir)
    else:
        plan = ScenarioGrid(
            name=args.scenario, base=base,
            rates=(_parse_floats(args.rates, flag="--rates")
                   if args.rates else ()),
            factors=(_parse_floats(args.factors, flag="--factors")
                     if args.factors else ()),
            stream_root=args.stream_dir)

    run = run_plan(plan, jobs=args.jobs)
    failures = [outcome.error for outcome in run.outcomes.values()
                if outcome.error is not None]
    if failures:
        for error in failures:
            print(f"error: {error}", file=sys.stderr)
            print(error.remote_traceback, file=sys.stderr)
        return 1

    merged = merge_load_results(run.outcomes, plan=args.scenario)
    for key, summary in _t.cast(dict, merged["tasks"]).items():
        p99 = summary["p99_us"]
        print(f"{key}: offered {summary['offered']} delivered "
              f"{summary['delivered']} p99 "
              f"{'n/a' if p99 is None else f'{p99:.0f} us'} "
              f"retries {summary['retries']}")
    totals = _t.cast(dict, merged["totals"])
    print(f"total: {totals['tasks']} tasks, {totals['delivered']}/"
          f"{totals['offered']} delivered, {totals['sim_events']} sim "
          f"events [{run.wall_s:.1f}s wall, jobs={run.jobs}]")

    if args.stream_dir is not None:
        from ..obs.stream import merge_spool_manifests, \
            write_merged_manifest

        spools = {key: key_slug(key) for key in run.outcomes}
        manifest = merge_spool_manifests(args.stream_dir, spools)
        path = write_merged_manifest(args.stream_dir, manifest)
        print(f"stream: {manifest['task_count']} spools, "
              f"{manifest['shard_count']} shards -> {path}")
    if args.out is not None:
        write(args.out, merged, indent=1)
        print(f"summary: {totals['tasks']} tasks -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
