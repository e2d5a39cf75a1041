"""No definition in ``src/repro`` is reached only by tests.

Every function, method and class defined under ``src/repro`` must be
named somewhere outside its own definition in ``src/``, ``examples/``,
``perfbench/`` or ``benchmarks/``: as a name token, or as a word inside
a string literal (``getattr`` tables, dotted module paths, f-strings,
documents).  ``tests/`` does not count, so a member whose only caller
is a test fails here, unless ``KEEP`` names it with its reason.

The scan compares names, not bindings, so it is a lower bound: a
test-only ``poll`` method passes because other ``poll`` methods are
called.  Dunder methods are called by the language and are skipped.
"""

import ast
import io
import os
import re
import tokenize

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SCANNED = ("src", "examples", "perfbench", "benchmarks")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Definitions no production path names, each kept for one reason.
KEEP = {
    "destroy_endpoint": "paper API: a context destroys what it created",
    "unregister_handler": "paper API: handler tables are mutable",
    "dup": "MPI programming-model API (MPI_Comm_dup)",
    "subgroup": "MPI programming-model API (MPI_Comm_split)",
    "detach": "adaptive-polling API: the inverse of attach",
    "reserve": "paper section 2 QoS: Network.reserve makes a Reservation",
    "active_methods": "oracle surface: test_poll_reference compares it "
                      "with the reference manager's",
    "amortized_cycle_time": "the poll model's candidate source for the "
                            "adaptive skip bound (ROADMAP item 14)",
}


def _sources():
    for top in SCANNED:
        for directory, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                yield os.path.normpath(os.path.join(directory, name))


def _uses_and_definitions():
    """``name -> [(path, line)]`` of every mention, and every
    ``(name, path, first line, last line)`` defined under src/repro."""
    uses: dict[str, list[tuple[str, int]]] = {}
    definitions = []
    package = os.path.normpath(os.path.join(ROOT, "src", "repro"))
    for path in _sources():
        if path.endswith(".py"):
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            for token in tokenize.generate_tokens(io.StringIO(text).readline):
                if token.type == tokenize.NAME:
                    words = (token.string,)
                elif token.type == tokenize.STRING:
                    words = WORD.findall(token.string)
                else:
                    continue
                for word in words:
                    uses.setdefault(word, []).append((path, token.start[0]))
            if path.startswith(package + os.sep):
                for node in ast.walk(ast.parse(text, path)):
                    if isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef,
                                         ast.ClassDef)):
                        definitions.append((node.name, path, node.lineno,
                                            node.end_lineno))
        elif path.endswith((".json", ".md", ".txt")):
            with open(path, encoding="utf-8", errors="replace") as handle:
                for number, line in enumerate(handle, 1):
                    for word in WORD.findall(line):
                        uses.setdefault(word, []).append((path, number))
    return uses, definitions


def _unreached():
    uses, definitions = _uses_and_definitions()
    unreached = {}
    for name, path, first, last in definitions:
        if name.startswith("__") and name.endswith("__"):
            continue
        if not any(where != path or not first <= line <= last
                   for where, line in uses.get(name, ())):
            unreached[name] = f"{os.path.relpath(path, ROOT)}:{first}"
    return unreached


def test_every_definition_is_named_outside_tests():
    unreached = _unreached()
    test_only = {name: where for name, where in unreached.items()
                 if name not in KEEP}
    assert not test_only, (
        "only tests reach these definitions; delete them, or add them "
        f"to KEEP with a reason: {test_only}")
    stale = sorted(set(KEEP) - set(unreached))
    assert not stale, f"KEEP entries now named elsewhere: {stale}"
