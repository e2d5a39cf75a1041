"""Every name the benchmark prints: workloads, metrics, units, bounds.

``BENCHMARK.json`` is this module written out (``manifest()``); a test
keeps the two equal.  The driver's schema allows a per-layer entry only
``name``/``unit``/``better``, so the "which end-to-end metric should
this layer metric move, on which workload" table lives here as
``INTERACTIONS`` and is printed in README.md.
"""

from __future__ import annotations

#: How long one run measures by default; ``run_seconds`` in the manifest.
RUN_SECONDS = 10

#: (name, why) — one module per name under ``perfbench/workloads/``.
WORKLOADS = (
    ("pingpong_sweep",
     "closed loop, one pair, 0 B-256 KiB over raw MPL, Nexus MPL and Nexus "
     "MPL+TCP: kernel-bound, per-message cost dominates"),
    ("dual_poll",
     "two concurrent ping-pongs over MPL and TCP across the skip_poll "
     "sweep: the unified-poll fast path, core is the largest bucket"),
    ("climate_coupled",
     "every Table 1 row of the 16+8-rank coupled model: the only workload "
     "with mpi, numpy physics and 24-process Store/Resource contention"),
    ("load_capacity",
     "open-loop Poisson and closed-loop fleets under SLOs plus two capacity "
     "bisections: obs as a metrics registry, core retry/failover slow path"),
    ("traced_analysis",
     "spooled and in-memory traced scenarios, then fold, graph and "
     "critical-path extraction and export: obs span write and read paths"),
    ("fleet_grid",
     "16-task scenario grid on a fixed 2-worker spawn pool, merged: the "
     "only workload where spawn, import, pickling and merge do the work"),
)
WORKLOAD_NAMES = tuple(name for name, _why in WORKLOADS)

#: (name, unit, better, bound).  ``fail_frac`` is not listed: the driver
#: wants metrics that are never 0, so failures travel as the result
#: line's ``failed``/``attempted`` and any failure makes the run incorrect.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("py_calls", "calls", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: The repo's packages, in stack order, then what lies outside them.
#: ``ext_python`` is everything that is not one of the ten layers or
#: numpy: builtins, the stdlib, this harness, and the repo's small
#: packages (util, testbeds, rpc, fm, baselines; under 1 % of any run).
LAYERS = ("simnet", "transports", "core", "mpi", "apps", "load", "obs",
          "fleet", "place", "bench")
BUCKETS = LAYERS + ("ext_numpy", "ext_python")

_GENERIC = (
    ("self_s", "s", "lower"),
    ("self_frac", "fraction", "lower"),
    ("calls", "calls", "lower"),
    ("entry_calls", "calls", "lower"),
)

_SPECIFIC = (
    ("simnet.events", "events", "lower"),
    ("simnet.events_per_s", "1/s", "higher"),
    ("simnet.sim_s", "s", "lower"),
    ("transports.msgs", "count", "lower"),
    ("transports.bytes", "bytes", "lower"),
    ("transports.dropped_msgs", "count", "lower"),
    ("transports.raw_pingpong_s", "s", "lower"),
    ("core.poll_cycles", "count", "lower"),
    ("core.poll_fires", "count", "lower"),
    ("core.poll_hit_frac", "fraction", "higher"),
    ("core.idle_ffwd", "count", "higher"),
    ("core.retries", "count", "lower"),
    ("core.failovers", "count", "lower"),
    ("core.rsr_per_s", "1/s", "higher"),
    ("core.nexus_single_s", "s", "lower"),
    ("core.nexus_multi_s", "s", "lower"),
    ("apps.paper_err_pp", "pp", "lower"),
    ("load.probes", "count", "lower"),
    ("load.offered", "count", "higher"),
    ("load.delivered", "count", "higher"),
    ("load.probe_wall_med_s", "s", "lower"),
    ("load.suite_s", "s", "lower"),
    ("load.capacity_s", "s", "lower"),
    ("obs.spans", "count", "lower"),
    ("obs.spans_per_s", "1/s", "higher"),
    ("obs.dropped_spans", "count", "lower"),
    ("obs.spool_bytes", "bytes", "lower"),
    ("obs.shards", "count", "lower"),
    ("obs.emit_s", "s", "lower"),
    ("obs.fold_s", "s", "lower"),
    ("obs.extract_s", "s", "lower"),
    ("obs.export_s", "s", "lower"),
    ("obs.trace_on_off_x", "x", "lower"),
    ("fleet.tasks", "count", "higher"),
    ("fleet.failed_tasks", "count", "lower"),
    ("fleet.serial_wall_s", "s", "lower"),
    ("fleet.speedup_x", "x", "higher"),
    ("fleet.overhead_s", "s", "lower"),
    ("fleet.pool_start_s", "s", "lower"),
    ("fleet.children_cpu_s", "s", "lower"),
    ("fleet.merge_s", "s", "lower"),
    ("fleet.payload_bytes", "bytes", "lower"),
    ("harness.reps", "count", "higher"),
    ("harness.wall_median_s", "s", "lower"),
    ("harness.wall_p25_s", "s", "lower"),
    ("harness.wall_p75_s", "s", "lower"),
    ("harness.cpu_s", "s", "lower"),
    ("harness.first_rep_s", "s", "lower"),
    ("harness.import_s", "s", "lower"),
    ("harness.inputs_s", "s", "lower"),
    ("harness.profile_overhead_x", "x", "lower"),
)

#: (name, unit, better) for every per-layer metric.
PER_LAYER = tuple(
    (f"{bucket}.{metric}", unit, better)
    for bucket in BUCKETS for metric, unit, better in _GENERIC
) + _SPECIFIC

#: Layer metrics -> the end-to-end metrics they should move, the
#: workloads where they do the work, and the workloads where they
#: should not.  With one process and no contention a layer's gain is at
#: most its ``.self_frac`` of ``wall_s`` and its ``.calls`` share of
#: ``py_calls``.
INTERACTIONS = (
    (("simnet.self_s", "simnet.calls", "simnet.events_per_s"),
     ("wall_s", "py_calls"), ("pingpong_sweep",), ("traced_analysis",)),
    (("core.self_s", "core.poll_cycles", "core.nexus_multi_s"),
     ("wall_s", "py_calls"), ("dual_poll", "climate_coupled"), ()),
    (("core.retries", "core.failovers"),
     ("wall_s",), ("load_capacity", "traced_analysis"), ("dual_poll",)),
    (("mpi.self_s",),
     ("wall_s",), ("climate_coupled",),
     ("pingpong_sweep", "dual_poll", "load_capacity", "traced_analysis",
      "fleet_grid")),
    (("transports.self_s",),
     ("wall_s",), WORKLOAD_NAMES[:5], ()),
    (("obs.self_s", "load.probes", "load.probe_wall_med_s"),
     ("wall_s",), ("load_capacity",),
     ("pingpong_sweep", "dual_poll", "climate_coupled")),
    (("obs.emit_s", "obs.fold_s", "obs.extract_s", "obs.spool_bytes"),
     ("wall_s", "peak_rss_mb"), ("traced_analysis",), ("load_capacity",)),
    (("fleet.pool_start_s", "fleet.overhead_s", "fleet.payload_bytes"),
     ("wall_s", "peak_rss_mb"), ("fleet_grid",), WORKLOAD_NAMES[:5]),
    (("harness.import_s",),
     ("setup_s", "wall_s"), WORKLOAD_NAMES, ()),
)


def manifest() -> dict[str, object]:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "-m", "perfbench"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER],
    }
