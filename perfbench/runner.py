"""The parent side: launch each workload's subprocess, time its set-up
from outside, print every metric by name and unit, write the results.

Nothing here imports ``repro``; the checkout is located from this
file, so the command works from any directory.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import subprocess
import sys
import time
import typing as _t

from . import catalogue

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Result JSON, span files, scratch space and the bytecode cache.
OUT = os.path.join(ROOT, "perfbench_out")

#: Fresh-interpreter launches behind ``setup_s``, half before the
#: measured child and half after it: a launch is short, so it takes
#: this many, in two windows, for one to land in a quiet moment.
SETUP_LAUNCHES = 8
#: The driver allows a run 180 s; a stuck child is killed before that.
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not run (as opposed to: it ran and failed)."""


def child_env() -> dict[str, str]:
    """The environment every child gets: the checkout's sources first
    (``FleetPool`` workers are spawned, so they need it too), a bytecode
    cache and temp directory inside the checkout, and a fixed hash seed
    so that call counts repeat exactly."""
    for sub in ("pycache", "tmp"):
        os.makedirs(os.path.join(OUT, sub), exist_ok=True)
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT] + ([inherited] if inherited else []))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(OUT, "pycache")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = os.path.join(OUT, "tmp")
    return env


def _child(workload: str, seed: int, *extra: str) -> dict[str, _t.Any]:
    """Run ``perfbench.child`` to completion; its last line is JSON.

    The child leads its own process group, so that a stuck run is
    killed together with any fleet workers it spawned.
    """
    child = subprocess.Popen(
        [sys.executable, "-m", "perfbench.child", "--workload", workload,
         "--seed", str(seed), "--out", OUT, *extra],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        stdout, _stderr = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise BenchError(f"{workload}: child still running after "
                         f"{CHILD_TIMEOUT_S} s, killed") from None
    if child.returncode != 0:
        raise BenchError(f"{workload}: child exited with code "
                         f"{child.returncode}")
    return json.loads(stdout.splitlines()[-1])


def fingerprint() -> dict[str, object]:
    """Where a result was measured."""
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "commit": commit or "unknown"}


def run_workload(workload: str, seed: int, seconds: float, *,
                 end_to_end: bool, per_layer: bool) -> dict[str, _t.Any]:
    """One workload in a fresh subprocess.

    ``end_to_end`` adds the set-up launches behind ``setup_s``;
    ``per_layer`` adds the micro-probes to the traced repetition.
    """
    launches: list[float] = []

    def launch_setups() -> None:
        for _ in range(SETUP_LAUNCHES // 2 if end_to_end else 0):
            started = time.perf_counter()
            _child(workload, seed, "--setup-only")
            launches.append(time.perf_counter() - started)

    launch_setups()
    result = _child(workload, seed, "--seconds", str(seconds),
                    *(["--probes"] if per_layer else []))
    launch_setups()
    if end_to_end and result["end_to_end"]:
        result["end_to_end"]["setup_s"] = min(launches)
        result["setup_launches_s"] = launches
    result["seconds"] = seconds
    result["fingerprint"] = fingerprint()
    units = {name: unit for name, unit, *_rest
             in catalogue.END_TO_END + catalogue.PER_LAYER}
    for section in ("end_to_end", "per_layer"):
        result[section] = {name: {"value": value, "unit": units[name]}
                           for name, value in result[section].items()}
    result["fail_frac"] = result["failed"] / result["attempted"]
    with open(os.path.join(OUT, f"result-{workload}.json"), "w") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return result


def correct(result: dict[str, _t.Any]) -> bool:
    return result["failed"] == 0 and bool(result["end_to_end"])


def _row(name: str, metric: dict[str, _t.Any], note: str = "") -> str:
    value = metric["value"]
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    return f"  {name:<28} {text:>14} {metric['unit']:<9} {note}".rstrip()


def render(result: dict[str, _t.Any], *, end_to_end: bool,
           per_layer: bool) -> str:
    env = result["fingerprint"]
    lines = [f"== {result['workload']}  seed {result['seed']}, "
             f"{result['seconds']:g} s, {env['nproc']} cpus, "
             f"Python {env['python']}, numpy {env['numpy']}, "
             f"commit {env['commit']}"]
    layer = result["per_layer"]
    if end_to_end:
        lines.append("end-to-end (tracing off; lower is better)")
        bounds = {name: bound for name, _u, _b, bound
                  in catalogue.END_TO_END}
        for name, metric in result["end_to_end"].items():
            note = f"bound {bounds[name]:.2f}"
            if name == "wall_s":
                reps, median, p25, p75 = (
                    layer[f"harness.{key}"]["value"] for key in
                    ("reps", "wall_median_s", "wall_p25_s", "wall_p75_s"))
                note += (f"  min of {reps}; median {median:.4f}, "
                         f"quartiles {p25:.4f}-{p75:.4f}")
            lines.append(_row(name, metric, note))
        lines.append(_row(
            "fail_frac", {"value": result["fail_frac"], "unit": "fraction"},
            f"bound 0     {result['failed']} of {result['attempted']} "
            f"operations; digest {str(result['digest'])[:12]}"
            + (" (pinned)" if result["pinned"] else "")))
    if per_layer:
        lines.append("per-layer (one repetition under the tracer and "
                     "cProfile; rates over wall_s)")
        lines += [_row(name, metric) for name, metric in layer.items()]
    for error in result["errors"]:
        lines.append("FAILED " + error.rstrip())
    return "\n".join(lines)


def driver_line(result: dict[str, _t.Any], section: str) -> str:
    """The one-object last line the benchmark driver reads."""
    return json.dumps({"correct": correct(result),
                       "attempted": result["attempted"],
                       "failed": result["failed"],
                       "metrics": result[section]})


def a_a(seed: int, seconds: float) -> int:
    """Run every workload's end-to-end set twice on the same code and
    hold the pair to the benchmark's own bounds."""
    worst = 0
    print(f"{'workload':<16} {'metric':<12} {'A':>14} {'B':>14} "
          f"{'rel diff':>9} {'bound':>6}")
    for workload in catalogue.WORKLOAD_NAMES:
        pair = [run_workload(workload, seed, seconds, end_to_end=True,
                             per_layer=False) for _ in range(2)]
        for name, _unit, _better, bound in catalogue.END_TO_END:
            a, b = (r["end_to_end"][name]["value"] for r in pair)
            diff = abs(b - a) / a
            verdict = "" if diff <= bound else "  OUT OF BOUND"
            worst |= diff > bound
            print(f"{workload:<16} {name:<12} {a:>14.6g} {b:>14.6g} "
                  f"{diff:>9.4f} {bound:>6.2f}{verdict}")
        fails = [r["fail_frac"] for r in pair]
        worst |= any(fails)
        print(f"{workload:<16} {'fail_frac':<12} {fails[0]:>14.6g} "
              f"{fails[1]:>14.6g} {'':>9} {0:>6.2f}"
              + ("  FAILED" if any(fails) else ""))
    return int(worst)


def main(argv: _t.Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m perfbench",
        description="Run the repo's benchmark: every workload, or one.")
    parser.add_argument("--workload", choices=catalogue.WORKLOAD_NAMES,
                        help="run only this workload (default: all six)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(catalogue.RUN_SECONDS),
                        help="how long the timed repetitions run")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics only; 1: per-layer "
                             "metrics only (default: both)")
    parser.add_argument("--aa", action="store_true",
                        help="run everything twice and compare the pair "
                             "against the bounds")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no src/repro under {ROOT}: nothing to measure",
              file=sys.stderr)
        return 2
    try:
        if args.aa:
            return a_a(args.seed, args.seconds)
        end_to_end = args.trace in (None, 0)
        per_layer = args.trace in (None, 1)
        status = 0
        for workload in ([args.workload] if args.workload
                         else catalogue.WORKLOAD_NAMES):
            result = run_workload(workload, args.seed, args.seconds,
                                  end_to_end=end_to_end,
                                  per_layer=per_layer)
            print(render(result, end_to_end=end_to_end,
                         per_layer=per_layer))
            if args.workload and args.trace is not None:
                # The driver's form: the last line carries correctness.
                print(driver_line(
                    result, "per_layer" if args.trace else "end_to_end"))
            elif not correct(result):
                status = 1
        return status
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
