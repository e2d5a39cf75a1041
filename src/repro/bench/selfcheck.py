"""``python -m repro.bench --selfcheck``: run twice, compare, validate.

The byte-determinism contract is cross-process — identical flags give
identical files from *any* interpreter — so the two runs are two fresh
subprocesses with different ``PYTHONHASHSEED`` values (an in-process
re-run would share one hash seed and could hide a set- or dict-order
dependence).  Each run writes a record, a trace and whatever the
selected artefacts export; every file is then compared byte for byte
with its twin and passed through :func:`repro.obs.validate.validate_file`.
"""

from __future__ import annotations

import filecmp
import os
import pathlib
import subprocess
import sys
import tempfile
import typing as _t

from ..obs.validate import validate_file

#: Distinct, fixed hash seeds for the two interpreters.
HASH_SEEDS = ("1", "2")


def _launch(directory: str, hash_seed: str,
            artefacts: _t.Sequence[str]) -> subprocess.Popen:
    """Start one run; its transcript goes to ``<directory>.log``."""
    os.makedirs(directory)
    command = [sys.executable, "-m", "repro.bench", *artefacts,
               "--record", os.path.join(directory, "record.json"),
               "--trace", os.path.join(directory, "trace.json"),
               "--export-dir", os.path.join(directory, "export")]
    # The children must import the same source tree as this process.
    source_root = str(pathlib.Path(__file__).resolve().parents[2])
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(filter(
                   None, [source_root, os.environ.get("PYTHONPATH")])))
    with open(directory + ".log", "w") as log:
        return subprocess.Popen(command, env=env, stdout=log,
                                stderr=subprocess.STDOUT)


def _files(directory: str) -> list[str]:
    """Every file under ``directory``, as sorted relative paths."""
    return sorted(
        os.path.relpath(os.path.join(root, name), directory)
        for root, _dirs, names in os.walk(directory) for name in names)


def _first_problem(first: str, second: str) -> str | None:
    """The first path that differs or fails validation, with why."""
    names = _files(first)
    for name in sorted(set(names) ^ set(_files(second))):
        return f"{name} written by only one run"
    for name in names:
        if not filecmp.cmp(os.path.join(first, name),
                           os.path.join(second, name), shallow=False):
            return f"{name} differs between runs"
    for name in names:
        if name.endswith((".json", ".jsonl")):  # graph.dot: compared only
            try:
                validate_file(os.path.join(first, name))
            except ValueError as error:
                return f"{name} is invalid: {error}"
    return None


def selfcheck(artefacts: _t.Sequence[str]) -> int:
    """Exit code 0 when both runs wrote identical, valid files."""
    with tempfile.TemporaryDirectory(prefix="repro-selfcheck-") as top:
        runs = [os.path.join(top, f"hashseed-{seed}") for seed in HASH_SEEDS]
        children = [_launch(directory, seed, artefacts)
                    for directory, seed in zip(runs, HASH_SEEDS)]
        for child, directory, seed in zip(children, runs, HASH_SEEDS):
            if child.wait() != 0:
                with open(directory + ".log") as log:
                    sys.stderr.write(log.read())
                print(f"selfcheck: FAILED — PYTHONHASHSEED={seed} run "
                      f"exited {child.returncode}", file=sys.stderr)
                return 1
        problem = _first_problem(*runs)
        written = len(_files(runs[0]))
    if problem is not None:
        print(f"selfcheck: FAILED — {problem}", file=sys.stderr)
        return 1
    print(f"selfcheck: {', '.join(artefacts)}: {written} files "
          f"byte-identical and valid across two interpreters "
          f"(PYTHONHASHSEED {' / '.join(HASH_SEEDS)}) — OK")
    return 0
