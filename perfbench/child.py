"""One workload, measured in this fresh interpreter.

``python -m perfbench.child --workload W --seed N --seconds S --out DIR``
imports what the workload needs, builds its inputs, and then runs one
cold warm-up repetition, untraced timed repetitions for ``S`` seconds,
the optional reference run, and one repetition under the span tracer
and the cProfile hook.  It prints one JSON document on its last line.
``--setup-only`` exits after the inputs are built: that launch is what
``setup_s`` times from outside.

Top-level imports are stdlib only: ``FleetPool`` uses spawn, which
re-imports this module in every worker.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
import typing as _t

#: Timed repetitions are never fewer than this, however short ``--seconds``.
MIN_REPS = 5
#: Tracebacks kept in the result document.
MAX_ERRORS = 3


def digest_of(document: dict[str, object]) -> str:
    """sha256 of the document's canonical JSON."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def count_failures(digests: _t.Sequence[str | None],
                   pin: str | None) -> int:
    """How many operations failed, given each one's digest (``None`` if
    it raised or its shape check failed).  An operation also fails when
    its digest differs from the first one's, and every operation fails
    when that first digest is not the pinned one."""
    good = [digest for digest in digests if digest is not None]
    if not good or (pin is not None and good[0] != pin):
        return len(digests)
    return sum(digest != good[0] for digest in digests)


def _cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


class Repetition(_t.NamedTuple):
    wall_s: float
    cpu_s: float
    children_cpu_s: float
    #: What the workload produced; kept only on request, because holding
    #: every repetition's results would make peak_rss_mb grow with the
    #: repetition count.
    finished: _t.Any


class Harness:
    """Runs repetitions of one workload and keeps the operation ledger."""

    def __init__(self, tracer: _t.Any):
        self.tracer = tracer
        self.digests: list[str | None] = []
        self.errors: list[str] = []

    def repetition(self, run: _t.Callable, inputs: _t.Any, label: str,
                   profiler: cProfile.Profile | None = None,
                   keep: bool = False) -> Repetition | None:
        """One operation: collect garbage, swallow stdout, time ``run``,
        then let the workload check and document what it produced."""
        self.tracer.rep = label
        gc.collect()
        cpu0 = _cpu_s(resource.RUSAGE_SELF)
        children0 = _cpu_s(resource.RUSAGE_CHILDREN)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                started = time.perf_counter()
                if profiler is not None:
                    profiler.enable()
                try:
                    finish = run(inputs, self.tracer)
                finally:
                    if profiler is not None:
                        profiler.disable()
                wall = time.perf_counter() - started
                children = _cpu_s(resource.RUSAGE_CHILDREN) - children0
                cpu = _cpu_s(resource.RUSAGE_SELF) - cpu0 + children
                finished = finish()
            digest = digest_of(finished.document)
        except Exception:  # the ledger must record it and carry on
            self.digests.append(None)
            if len(self.errors) < MAX_ERRORS:
                self.errors.append(f"{label}: {traceback.format_exc()}")
            return None
        self.digests.append(digest)
        return Repetition(wall, cpu, children, finished if keep else None)


def measure(name: str, module: _t.Any, inputs: _t.Any, *, seconds: float,
            pin: str | None, probes: bool, spans_path: str | None
            ) -> dict[str, object]:
    """Everything the child reports, bar ``setup_s`` (timed from outside)."""
    import repro.obs as obs

    from . import attribution, catalogue, counters
    from .tracer import Tracer

    tracer = Tracer(name)
    harness = Harness(tracer)
    reference = getattr(module, "reference", None)

    first = harness.repetition(module.run, inputs, "warm-up")
    timed: list[Repetition] = []
    deadline = time.perf_counter() + seconds
    rep = 0
    while ((len(timed) < MIN_REPS or time.perf_counter() < deadline)
           and harness.digests.count(None) < MIN_REPS):
        result = harness.repetition(module.run, inputs, f"timed-{rep}")
        rep += 1
        if result is not None:
            timed.append(result)
    # Read before the reference and traced repetitions grow the process.
    peak_rss_mb = (_rss_mb(resource.RUSAGE_SELF)
                   + _rss_mb(resource.RUSAGE_CHILDREN))

    serial = (harness.repetition(reference, inputs, "reference")
              if reference is not None else None)

    tracer.enabled = True
    profiler = cProfile.Profile()
    with obs.watching_runtimes() as watched:
        traced = harness.repetition(module.run, inputs, "traced", profiler,
                                    keep=True)

    layer = dict.fromkeys((n for n, _u, _b in catalogue.PER_LAYER), 0.0)
    end_to_end: dict[str, float] = {}
    if timed and traced is not None:
        walls = sorted(r.wall_s for r in timed)
        wall_s = walls[0]
        p25, median, p75 = (statistics.quantiles(walls, n=4)
                            if len(walls) > 1 else walls * 3)
        profile = attribution.attribute(profiler.getstats())
        end_to_end = {"wall_s": wall_s,
                      "py_calls": profile.pop("py_calls"),
                      "peak_rss_mb": peak_rss_mb}
        totals = counters.Counters()
        for nexus in watched:
            totals.add_runtime(nexus)
        for result in traced.finished.remote_results:
            totals.add_result(result)
        updates = {
            **profile,
            **totals.metrics(wall_s),
            **traced.finished.layer,
            "fleet.children_cpu_s": traced.children_cpu_s,
            "harness.reps": len(walls),
            "harness.wall_median_s": median,
            "harness.wall_p25_s": p25,
            "harness.wall_p75_s": p75,
            "harness.cpu_s": statistics.median(r.cpu_s for r in timed),
            "harness.first_rep_s": first.wall_s if first else 0.0,
            "harness.profile_overhead_x": traced.wall_s / wall_s,
        }
        if serial is not None:
            updates.update({
                "fleet.serial_wall_s": serial.wall_s,
                "fleet.speedup_x": serial.wall_s / wall_s,
                "fleet.overhead_s": wall_s - serial.wall_s / 2,
            })
        if probes:
            from .probes import run_probes

            tracer.rep = "probes"
            with contextlib.redirect_stdout(io.StringIO()):
                updates.update(run_probes(tracer))
        unknown = set(updates) - set(layer)
        if unknown:
            raise KeyError(f"metrics missing from the catalogue: {unknown}")
        layer.update(updates)
    if spans_path is not None:
        tracer.write(spans_path)

    digests = harness.digests
    return {
        "workload": name,
        "attempted": len(digests),
        "failed": count_failures(digests, pin),
        "errors": harness.errors,
        "digest": next((d for d in digests if d is not None), None),
        "pinned": pin,
        "end_to_end": end_to_end,
        "per_layer": layer,
        "spans": len(tracer.spans),
    }


def main(argv: _t.Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--probes", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    module = importlib.import_module(f"perfbench.workloads.{args.workload}")
    imported = time.perf_counter()
    scratch = os.path.join(args.out, "scratch",
                           f"{args.workload}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        inputs = module.build(args.seed, scratch)
        built = time.perf_counter()
        setup = {"harness.import_s": imported - started,
                 "harness.inputs_s": built - imported}
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        with open(os.path.join(os.path.dirname(__file__),
                               "pins.json")) as handle:
            pins = json.load(handle)
        pin = (pins["digests"].get(args.workload)
               if args.seed == pins["seed"] else None)
        result = measure(
            args.workload, module, inputs, seconds=args.seconds, pin=pin,
            probes=args.probes,
            spans_path=os.path.join(args.out,
                                    f"spans-{args.workload}.jsonl"))
        result["seed"] = args.seed
        _t.cast(dict, result["per_layer"]).update(setup)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
