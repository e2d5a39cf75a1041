"""Which ``src/repro`` functions does no production run call?

A census with the standard library only: every entry point below runs
in its own interpreter with a ``sys.setprofile`` hook, installed by a
generated ``sitecustomize`` module on ``PYTHONPATH`` so that spawned
workers and perfbench's children carry it too.  Each interpreter writes
down each ``src/repro`` code object the first time it enters it; the census
then lists every function defined under ``src/repro`` that no
interpreter entered, with its line count.

Run from anywhere (the checkout is located from this file)::

    python tests/census.py                 # every group, ~4 min on 2 cpus
    python tests/census.py examples fleet  # some groups

The groups are ``bench`` (the CI gate with ``--trace --record
--export-dir --baseline --check``, ``fleet``, streamed and sampled
``analysis``, ``--profile/--flame``, ``--jobs 2``, and the validator
over their outputs), ``examples`` (every ``examples/*.py``), ``fleet``
(three ``python -m repro.fleet`` runs) and ``perfbench`` (the six
workloads at ``--seconds 0``).  Exit status 1 means an entry point
failed, and the list then over-counts.

Limits: it is a lower bound on reachability, not a proof of deadness
either way.  A function that only a test calls is listed; a generator
function that is created but never iterated counts as not called.
Perfbench's own ``cProfile`` repetition replaces the hook while it
runs (the hook is put back when that profiler stops), so calls made
only inside it are missed.  Bodies that are only a docstring, ``...``,
``pass`` or ``raise NotImplementedError`` (protocol and abstract stubs)
are not counted.

Not a test: pytest collects only ``test_*.py`` and CI does not run it.
"""

from __future__ import annotations

import argparse
import ast
import glob
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")
BASELINE = os.path.join(ROOT, "benchmarks", "BENCH_baseline.json")
GROUPS = ("bench", "examples", "fleet", "perfbench")
WORKLOADS = ("pingpong_sweep", "dual_poll", "climate_coupled",
             "load_capacity", "traced_analysis", "fleet_grid")

#: The hook every interpreter of the census loads at start-up.
#: ``{out!r}`` and ``{package!r}`` are filled in per census.
SITECUSTOMIZE = '''\
import os, sys, threading

_PACKAGE = {package!r} + os.sep
# Line-buffered: each first entry is on disk at once, so a worker that
# is killed rather than left to exit still reports what it ran.
_out = open(os.path.join({out!r}, f"{{os.getpid()}}.txt"), "a", buffering=1)
# id -> code object; holding the code keeps its id from being reused.
_seen = {{}}


def _hook(frame, event, arg, _seen=_seen):
    if event == "call":
        code = frame.f_code
        if id(code) not in _seen:
            _seen[id(code)] = code
            path = os.path.realpath(code.co_filename)
            if path.startswith(_PACKAGE):
                _out.write(f"{{path[len(_PACKAGE):]}}\\t"
                           f"{{code.co_firstlineno}}\\n")


def _keep_hook_after_cprofile():
    import cProfile

    disable = cProfile.Profile.disable

    def disable_then_rehook(self):
        disable(self)
        sys.setprofile(_hook)

    cProfile.Profile.disable = disable_then_rehook


_keep_hook_after_cprofile()
threading.setprofile(_hook)
sys.setprofile(_hook)
'''


def entry_points(work: str) -> dict[str, list[tuple[list[str], str]]]:
    """``group -> [(argv after the interpreter, cwd)]``."""
    bench = ["-m", "repro.bench"]
    fleet = ["-m", "repro.fleet", "--factors", "0.5,1,1.5"]
    return {
        "bench": [
            (bench + ["--trace", "t.json", "--record", "r.json",
                      "--export-dir", "out", "--baseline", BASELINE,
                      "--check"], work),
            (bench + ["fleet"], work),
            (bench + ["analysis", "--stream-dir", "stream",
                      "--export-dir", "streamed"], work),
            (bench + ["analysis", "--stream-dir", "sampled", "--sample",
                      "reservoir:8", "--sample-seed", "3"], work),
            (bench + ["baselines", "chaos", "--profile", "--flame",
                      "f.folded"], work),
            (bench + ["--jobs", "2", "--record", "r2.json"], work),
            (["-m", "repro.obs.validate", "VALIDATE"], work),
        ],
        "examples": [
            ([path], work)
            for path in sorted(glob.glob(os.path.join(ROOT, "examples",
                                                      "*.py")))],
        "fleet": [
            (fleet + ["--jobs", "1", "--out", "m1.json"], work),
            (fleet + ["--jobs", "2", "--out", "m2.json"], work),
            (["-m", "repro.fleet", "--scenario", "chaos-flaky-tcp",
              "--seeds", "2", "--jobs", "2", "--stream-dir", "fleet_stream"],
             work),
        ],
        "perfbench": [
            (["-m", "perfbench", "--workload", name, "--seed", "0",
              "--seconds", "0", "--trace", "0"], ROOT)
            for name in WORKLOADS],
    }


def _validate_targets(work: str) -> list[str]:
    """What the ``bench`` group wrote, for ``repro.obs.validate``."""
    paths = [os.path.join(work, name) for name in ("t.json", "r.json",
                                                   "r2.json")]
    paths += sorted(glob.glob(os.path.join(work, "out", "*.json")))
    paths += sorted(glob.glob(os.path.join(work, "stream", "*",
                                           "manifest.json")))
    paths += sorted(glob.glob(os.path.join(work, "stream", "*",
                                           "shard-*.jsonl")))
    return [path for path in paths if os.path.exists(path)]


def _short(arg: str, work: str) -> str:
    """``arg`` as printed: paths relative to the checkout or work dir."""
    for base in (work, ROOT):
        if arg.startswith(base + os.sep):
            return os.path.relpath(arg, base)
    return arg


def functions() -> dict[tuple[str, int], tuple[str, int]]:
    """``(path relative to src/repro, first line) -> (qualname, lines)``
    for every ``def`` under ``src/repro`` that is not a stub.  The first
    line is a decorated function's first decorator, as on its code
    object."""
    found: dict[tuple[str, int], tuple[str, int]] = {}

    def visit(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                if not _is_stub(child):
                    found[(path, first)] = (f"{prefix}{child.name}",
                                            child.end_lineno - first + 1)
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            else:
                visit(child, path, prefix)

    for path in sorted(glob.glob(os.path.join(PACKAGE, "**", "*.py"),
                                 recursive=True)):
        with open(path, encoding="utf-8") as source:
            tree = ast.parse(source.read(), path)
        visit(tree, os.path.relpath(path, PACKAGE), "")
    return found


def _is_stub(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    body = node.body
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    if not body:
        return True
    if len(body) != 1:
        return False
    only = body[0]
    if isinstance(only, ast.Pass):
        return True
    if isinstance(only, ast.Expr) and isinstance(only.value, ast.Constant):
        return only.value.value is Ellipsis
    if isinstance(only, ast.Raise) and only.exc is not None:
        exc = only.exc.func if isinstance(only.exc, ast.Call) else only.exc
        return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"
    return False


def run(groups: list[str]) -> int:
    with tempfile.TemporaryDirectory(prefix="repro-census-") as scratch:
        hook, out, work = (os.path.join(scratch, name)
                           for name in ("hook", "calls", "work"))
        for directory in (hook, out, work):
            os.mkdir(directory)
        with open(os.path.join(hook, "sitecustomize.py"), "w") as module:
            module.write(SITECUSTOMIZE.format(
                out=out, package=os.path.realpath(PACKAGE)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([hook, SRC])
        failed = 0
        runs = 0
        plan = entry_points(work)
        for group in groups:
            for argv, cwd in plan[group]:
                if argv[-1] == "VALIDATE":
                    argv = argv[:-1] + _validate_targets(work)
                runs += 1
                shown = " ".join(_short(arg, work) for arg in argv)
                done = subprocess.run([sys.executable] + argv, cwd=cwd,
                                      env=env, stdout=subprocess.DEVNULL,
                                      stderr=subprocess.PIPE, text=True)
                status = "ok" if done.returncode == 0 else \
                    f"FAILED ({done.returncode})"
                print(f"[{group}] python {shown}: {status}", flush=True)
                if done.returncode != 0:
                    failed += 1
                    print(done.stderr[-2000:], file=sys.stderr)
        called: set[tuple[str, int]] = set()
        for name in os.listdir(out):
            with open(os.path.join(out, name)) as lines:
                for line in lines:
                    path, first = line.rstrip("\n").split("\t")
                    called.add((path, int(first)))

    defined = functions()
    never = sorted(key for key in defined if key not in called)
    total_lines = sum(lines for _name, lines in defined.values())
    never_lines = sum(defined[key][1] for key in never)
    for path, first in never:
        name, lines = defined[(path, first)]
        print(f"src/repro/{path}:{first} {name} ({lines} lines)")
    print(f"census: {runs} runs, {failed} failed; {len(never)} of "
          f"{len(defined)} functions ({never_lines} of {total_lines} lines) "
          "under src/repro never called")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python tests/census.py", description=__doc__.split("\n")[0])
    parser.add_argument("groups", nargs="*", metavar="GROUP",
                        help=f"entry-point groups to run: {', '.join(GROUPS)}"
                             " (default: all)")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.groups) - set(GROUPS))
    if unknown:
        parser.error(f"unknown group(s): {', '.join(unknown)}")
    return run(args.groups or list(GROUPS))


if __name__ == "__main__":
    sys.exit(main())
