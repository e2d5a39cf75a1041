"""The CI workflow, checked where it cannot run.

Every command ``ci.yml`` gives one of this repo's CLIs must parse under
that CLI's own parser, and every ``benchmarks/`` or ``examples/`` path
it names must exist — so a removed flag or a deleted baseline fails
here rather than on the next push.  ``python -m perfbench`` builds its
parser inside ``main``, so its flags are read from its ``--help``
output, and every workload a ``for workload in`` loop names must be in
``perfbench.catalogue.WORKLOAD_NAMES``.  Every CI job that prose under
``src/``, ``docs/``, ``tests/``, ``README.md`` or ``EXPERIMENTS.md``
names (a ``<name>-smoke``, ``regression-gate`` or ``deep-oracles``
token) must be a job the workflow defines.  PyYAML is not a dependency,
so the workflow is read as text: a ``run:`` value is one command, a
literal ``|`` block (one command per line) or a folded ``>`` block (its
lines joined into one command).
"""

import contextlib
import functools
import io
import pathlib
import re
import shlex
import subprocess
import sys

from perfbench.catalogue import WORKLOAD_NAMES
from repro.bench import ARTEFACTS
from repro.bench.__main__ import build_parser as bench_parser
from repro.fleet.__main__ import build_parser as fleet_parser

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"

#: ``python -m <module>`` -> its real parser (``repro.obs.validate``
#: takes bare paths and has none).
PARSERS = {"repro.bench": bench_parser, "repro.fleet": fleet_parser}
MODULE_RE = re.compile(
    r"python -m (repro\.bench|repro\.fleet|repro\.obs\.validate)(?=\s|$)(.*)")
PATH_RE = re.compile(r"\b(?:benchmarks|examples)/[\w./-]+")
PERFBENCH_RE = re.compile(r"python -m perfbench(?=\s|$)(.*)")
WORKLOAD_LOOP_RE = re.compile(r"\bfor workload in ([^;]*);")
JOB_NAME_RE = re.compile(
    r"[\w-]+-smoke\b|\bregression-gate\b|\bdeep-oracles\b")
PROSE = ("src", "docs", "tests", "README.md", "EXPERIMENTS.md")


def run_commands(text):
    """Every command line the workflow's ``run:`` values hand the shell."""
    lines = text.splitlines()
    commands = []
    for index, line in enumerate(lines):
        match = re.match(r"(\s*)(?:- )?run: ?(.*)$", line)
        if match is None:
            continue
        indent, value = len(match.group(1)), match.group(2).strip()
        if value not in ("|", ">"):
            commands.append(value)
            continue
        block = []
        for body in lines[index + 1:]:
            if body.strip() and len(body) - len(body.lstrip()) <= indent:
                break
            if body.strip():
                block.append(body.strip())
        commands.extend([" ".join(block)] if value == ">" else block)
    return commands


def _parse_error(module, argv):
    """The parser's complaint about ``argv``, or ``None``."""
    if module not in PARSERS:
        if not argv or any(arg.startswith("-") for arg in argv):
            return "expects one or more paths and no options"
        return None
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr):
            args = PARSERS[module]().parse_args(argv)
    except SystemExit:
        return stderr.getvalue().strip().splitlines()[-1]
    unknown = [name for name in getattr(args, "artefacts", ())
               if name not in ARTEFACTS]
    return f"unknown artefacts {unknown}" if unknown else None


@functools.cache
def perfbench_flags():
    """Every option ``python -m perfbench --help`` lists."""
    help_text = subprocess.run(
        [sys.executable, "-m", "perfbench", "--help"], cwd=ROOT,
        capture_output=True, text=True, check=True).stdout
    return frozenset(re.findall(r"(?<![\w-])--[\w-]+", help_text))


def problems(text):
    """One line per command that does not parse or path that is gone."""
    found = []
    for command in run_commands(text):
        match = MODULE_RE.search(command)
        if match is not None:
            error = _parse_error(match.group(1), shlex.split(match.group(2)))
            if error is not None:
                found.append(f"{command!r}: {error}")
        match = PERFBENCH_RE.search(command)
        if match is not None:
            found += [f"{command!r}: unknown perfbench flag {flag}"
                      for arg in shlex.split(match.group(1))
                      if (flag := arg.split("=", 1)[0]).startswith("--")
                      and flag not in perfbench_flags()]
        for loop in WORKLOAD_LOOP_RE.findall(command):
            found += [f"{command!r}: unknown perfbench workload {name!r}"
                      for name in loop.split() if name not in WORKLOAD_NAMES]
        for path in PATH_RE.findall(command):
            if not (ROOT / path).exists():
                found.append(f"{command!r}: no such path {path}")
    return found


def workflow_jobs(text):
    """The keys under the workflow's ``jobs:`` mapping."""
    _head, _jobs, body = text.partition("\njobs:\n")
    return frozenset(re.findall(r"^  ([\w-]+):", body, re.MULTILINE))


def prose_files():
    """``(relative path, text)`` of every file the job-name lint reads
    (this one aside: its mutation tests name jobs that do not exist)."""
    for name in PROSE:
        path = ROOT / name
        for file in sorted(path.rglob("*")) if path.is_dir() else [path]:
            if (file.is_file() and file.suffix in (".py", ".md")
                    and file != pathlib.Path(__file__).resolve()):
                yield file.relative_to(ROOT).as_posix(), file.read_text()


def stale_job_names(workflow, files):
    """One line per CI job a file names that the workflow lacks."""
    jobs = workflow_jobs(workflow)
    return [f"{path}: no CI job {name!r}" for path, text in files
            for name in sorted(set(JOB_NAME_RE.findall(text)))
            if name not in jobs]


def test_every_cli_command_parses_and_every_path_exists():
    assert problems(WORKFLOW.read_text()) == []


def test_every_ci_job_named_in_prose_exists():
    workflow = WORKFLOW.read_text()
    assert {"regression-gate", "stream-smoke"} <= workflow_jobs(workflow)
    assert stale_job_names(workflow, prose_files()) == []


def test_a_renamed_job_fails_the_job_name_lint():
    stale = WORKFLOW.read_text().replace("\n  stream-smoke:\n",
                                         "\n  spool-smoke:\n")
    found = stale_job_names(stale, prose_files())
    assert found
    assert all(line.endswith("no CI job 'stream-smoke'") for line in found)
    assert stale_job_names(WORKFLOW.read_text(), [
        ("docs/X.md", "the CI `analysis-smoke` job")]) == [
        "docs/X.md: no CI job 'analysis-smoke'"]


def test_folded_and_literal_blocks_read_as_the_shell_sees_them():
    commands = run_commands(WORKFLOW.read_text())
    gate = [command for command in commands if "--check" in command]
    assert gate == [
        "PYTHONPATH=src python -m repro.bench --trace bench_trace.json "
        "--record BENCH.json --export-dir bench_exports "
        "--baseline benchmarks/BENCH_baseline.json --check"]
    modules = {match.group(1) for match in map(MODULE_RE.search, commands)
               if match is not None}
    assert modules == {"repro.bench", "repro.obs.validate"}


def test_a_removed_flag_fails_the_lint():
    stale = re.sub(r"python -m repro\.(bench|fleet)(?=\s|$)",
                   r"\g<0> --quick", WORKFLOW.read_text())
    found = problems(stale)
    assert found
    assert all("unrecognized arguments: --quick" in line for line in found)


def test_a_deleted_baseline_fails_the_lint():
    stale = WORKFLOW.read_text().replace("BENCH_baseline.json",
                                         "BENCH_quick_baseline.json")
    assert problems(stale) == [
        "'PYTHONPATH=src python -m repro.bench --trace bench_trace.json "
        "--record BENCH.json --export-dir bench_exports --baseline "
        "benchmarks/BENCH_quick_baseline.json --check': no such path "
        "benchmarks/BENCH_quick_baseline.json"]


def test_a_bogus_perfbench_flag_fails_the_lint():
    stale = re.sub(r"python -m perfbench(?=\s|$)", r"\g<0> --bogus",
                   WORKFLOW.read_text())
    found = problems(stale)
    assert found
    assert all("unknown perfbench flag --bogus" in line for line in found)


def test_a_bogus_perfbench_workload_fails_the_lint():
    stale = WORKFLOW.read_text().replace("for workload in ",
                                         "for workload in bogus_workload ")
    found = problems(stale)
    assert found
    assert all("unknown perfbench workload 'bogus_workload'" in line
               for line in found)
