"""The CI workflow, checked where it cannot run.

Every command ``ci.yml`` gives one of this repo's CLIs must parse under
that CLI's own parser, and every ``benchmarks/`` or ``examples/`` path
it names must exist — so a removed flag or a deleted baseline fails
here rather than on the next push.  PyYAML is not a dependency, so the
workflow is read as text: a ``run:`` value is one command, a literal
``|`` block (one command per line) or a folded ``>`` block (its lines
joined into one command).
"""

import contextlib
import io
import pathlib
import re
import shlex

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


def problems(text):
    """One line per command that does not parse or path that is gone."""
    found = []
    for command in run_commands(text):
        match = MODULE_RE.search(command)
        if match is not None:
            error = _parse_error(match.group(1), shlex.split(match.group(2)))
            if error is not None:
                found.append(f"{command!r}: {error}")
        for path in PATH_RE.findall(command):
            if not (ROOT / path).exists():
                found.append(f"{command!r}: no such path {path}")
    return found


def test_every_cli_command_parses_and_every_path_exists():
    assert problems(WORKFLOW.read_text()) == []


def test_folded_and_literal_blocks_read_as_the_shell_sees_them():
    commands = run_commands(WORKFLOW.read_text())
    gate = [command for command in commands if "--check" in command]
    assert gate == [
        "PYTHONPATH=src python -m repro.bench --trace bench_trace.json "
        "--record BENCH.json --export-dir bench_exports "
        "--baseline benchmarks/BENCH_baseline.json --check"]
    modules = {match.group(1) for match in map(MODULE_RE.search, commands)
               if match is not None}
    assert modules == {"repro.bench", "repro.fleet", "repro.obs.validate"}


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
