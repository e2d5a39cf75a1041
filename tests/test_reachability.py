"""No definition in ``src/repro`` is reached only by tests, no
attribute is stored that nothing reads, and no import goes unused.

Every function, method and class defined under ``src/repro`` must be
named somewhere outside its own definition in ``src/``, ``examples/``,
``perfbench/`` or ``benchmarks/``: as a name token, or as a word inside
a string literal (``getattr`` tables, dotted module paths, f-strings,
documents).  ``tests/`` does not count, so a member whose only caller
is a test fails here, unless ``KEEP`` names it with its reason.

The scan compares names, not bindings, so it is a lower bound: a
test-only ``poll`` method passes because other ``poll`` methods are
called.  Dunder methods are called by the language and are skipped.

Two more scans read the syntax tree, and they too compare names:

* every ``self.<attr>`` stored under ``src/repro`` must be read as an
  attribute somewhere in ``src/``, ``examples/``, ``perfbench/``,
  ``benchmarks/`` or ``tests/``, or be a word of a string literal or
  of a ``.json``/``.md``/``.txt`` file there (``self.n += 1`` is a
  store, not a read);
* every name a module under ``src/repro`` imports must be used in that
  module, as a name or as a word of a string literal (quoted
  annotations).  ``__init__.py`` files re-export, and ``from
  __future__`` imports are directives, so neither is scanned.
"""

import ast
import functools
import io
import os
import re
import tokenize

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SCANNED = ("src", "examples", "perfbench", "benchmarks")
#: Where a stored attribute may be read: tests count as readers.
READERS = SCANNED + ("tests",)
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
PACKAGE = os.path.normpath(os.path.join(ROOT, "src", "repro"))
DOCUMENTS = (".json", ".md", ".txt")

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


def _sources(tops=SCANNED):
    for top in tops:
        for directory, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                yield os.path.normpath(os.path.join(directory, name))


def _uses_and_definitions():
    """``name -> [(path, line)]`` of every mention, and every
    ``(name, path, first line, last line)`` defined under src/repro."""
    uses: dict[str, list[tuple[str, int]]] = {}
    definitions = []
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
            if path.startswith(PACKAGE + os.sep):
                for node in ast.walk(_tree(path)):
                    if isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef,
                                         ast.ClassDef)):
                        definitions.append((node.name, path, node.lineno,
                                            node.end_lineno))
        elif path.endswith(DOCUMENTS):
            with open(path, encoding="utf-8", errors="replace") as handle:
                for number, line in enumerate(handle, 1):
                    for word in WORD.findall(line):
                        uses.setdefault(word, []).append((path, number))
    return uses, definitions


@functools.cache
def _tree(path):
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), path)


def _string_words(node):
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return WORD.findall(node.value)
    return ()


def _package_modules():
    return [path for path in _sources(("src",))
            if path.startswith(PACKAGE + os.sep) and path.endswith(".py")]


def _unread_attributes():
    """``path:line -> attr`` for each ``self.<attr>`` stored under
    src/repro that no reader loads or spells in a string."""
    reads = set()
    for path in _sources(READERS):
        if path.endswith(".py"):
            for node in ast.walk(_tree(path)):
                if isinstance(node, ast.Attribute) \
                        and isinstance(node.ctx, ast.Load):
                    reads.add(node.attr)
                reads.update(_string_words(node))
        elif path.endswith(DOCUMENTS):
            with open(path, encoding="utf-8", errors="replace") as handle:
                reads.update(WORD.findall(handle.read()))
    unread = {}
    for path in _package_modules():
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Store) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "self" \
                    and node.attr not in reads:
                unread[f"{os.path.relpath(path, ROOT)}:{node.lineno}"] = \
                    node.attr
    return unread


def _unused_imports():
    """``path:line -> name`` for each import its module never uses."""
    unused = {}
    for path in _package_modules():
        if os.path.basename(path) == "__init__.py":
            continue
        imported = {}
        used = set()
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
            elif isinstance(node, ast.ImportFrom) \
                    and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
            used.update(_string_words(node))
        for name, line in imported.items():
            if name not in used:
                unused[f"{os.path.relpath(path, ROOT)}:{line}"] = name
    return unused


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


def test_every_stored_attribute_is_read():
    unread = _unread_attributes()
    assert not unread, (
        f"stored but never read; delete the stores: {unread}")


def test_every_import_is_used():
    unused = _unused_imports()
    assert not unused, f"imported but never used: {unused}"
