"""No definition in ``src/repro`` is reached only by tests, no
attribute is stored that nothing reads, no dataclass field goes unused,
no import goes unused, and a process sleeps one way.

Every function, method and class defined under ``src/repro`` must be
named somewhere outside its own definition in ``src/``, ``examples/``,
``perfbench/`` or ``benchmarks/``: as a name token, or as a word inside
a string literal (``getattr`` tables, dotted module paths, f-strings,
documents).  ``tests/`` does not count, so a member whose only caller
is a test fails here, unless ``KEEP`` names it with its reason.  Nor
does prose about it: a docstring (the first string statement of a
module, class or function) is not a use.  Nor does a module's own
``__all__`` list, or an ``__init__.py``'s import statements: a module
exporting a name does not use it.  A function under a call decorator
(``@register_runner("load.run_scenario")``) is registered by it, and
counts as used.

The scan compares names, not bindings, so it is a lower bound: a
test-only ``poll`` method passes because other ``poll`` methods are
called.  Dunder methods are called by the language and are skipped.

Four more scans read the syntax tree, and they too compare names:

* every ``self.<attr>`` stored under ``src/repro`` must be read as an
  attribute somewhere in ``src/``, ``examples/``, ``perfbench/``,
  ``benchmarks/`` or ``tests/``, or be a word of a string literal or
  of a ``.json``/``.md``/``.txt`` file there (``self.n += 1`` is a
  store, not a read, and a name in a ``__slots__`` declaration
  declares the attribute, it does not read it);
* every field of a ``@dataclass`` under ``src/repro`` must be read as
  an attribute or passed as a keyword somewhere in those same
  directories; a word in a docstring or a document does not count;
* every name a module under ``src/repro`` imports must be used in that
  module, as a name or as a word of a string literal (quoted
  annotations).  ``__init__.py`` files re-export, and ``from
  __future__`` imports are directives, so neither is scanned;
* no ``yield`` under ``src/repro`` yields a ``timeout(...)`` call: a
  process sleeps by yielding its delay, which builds no event, and a
  ``Timeout`` is made only for a callback or a join to watch (tests
  may still yield one, which stays legal).
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
    "reorder": "paper API (section 3.2): reorder a descriptor table to "
               "influence method selection",
    "unregister_handler": "paper API: handler tables are mutable",
    "dup": "MPI programming-model API (MPI_Comm_dup)",
    "subgroup": "MPI programming-model API (MPI_Comm_split)",
    "detach": "adaptive-polling API: the inverse of attach",
    "active_methods": "oracle surface: test_poll_reference compares it "
                      "with the reference manager's",
    "defused": "oracle surface: test_poll_reference compares it with the "
               "reference join's",
    "cut_weight": "oracle for the partition refinement property: "
                  "refinement never raises the weighted cut",
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
            skipped = _export_lines(path)
            docstrings = _docstring_lines(path)
            for token in tokenize.generate_tokens(io.StringIO(text).readline):
                if token.start[0] in skipped:
                    continue
                if token.type == tokenize.STRING \
                        and token.start[0] in docstrings:
                    continue
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
                    if isinstance(node, ast.ClassDef) or isinstance(
                            node, (ast.FunctionDef, ast.AsyncFunctionDef)
                            ) and not _registered(node):
                        definitions.append((node.name, path, node.lineno,
                                            node.end_lineno))
        elif path.endswith(DOCUMENTS):
            with open(path, encoding="utf-8", errors="replace") as handle:
                for number, line in enumerate(handle, 1):
                    for word in WORD.findall(line):
                        uses.setdefault(word, []).append((path, number))
    return uses, definitions


def _export_lines(path):
    """Lines of a module's ``__all__`` list, and of an ``__init__.py``'s
    imports: a module exporting a name does not use it."""
    package = os.path.basename(path) == "__init__.py"
    lines = set()
    for node in _tree(path).body:
        if package and isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name)
                        and target.id == "__all__"
                        for target in node.targets)):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return frozenset(lines)


def _docstring_lines(path):
    """Lines of every docstring in the module: prose about a name does
    not use it."""
    lines = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return frozenset(lines)


def _registered(node):
    """A function under a call decorator (``@register_runner(key)``)
    is reached through the registry the decorator fills."""
    return any(isinstance(decorator, ast.Call)
               for decorator in node.decorator_list)


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


def _slot_declarations(tree):
    """The ids of the nodes inside every ``__slots__ = ...`` value."""
    declared = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        if any(isinstance(target, ast.Name) and target.id == "__slots__"
               for target in targets):
            declared.update(map(id, ast.walk(node.value)))
    return declared


@functools.cache
def _reads():
    """The attribute names loaded, the keyword argument names passed, and
    the words of string literals (``__slots__`` declarations aside) and
    documents, over every reader."""
    loads, keywords, words = set(), set(), set()
    for path in _sources(READERS):
        if path.endswith(".py"):
            tree = _tree(path)
            declared = _slot_declarations(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) \
                        and isinstance(node.ctx, ast.Load):
                    loads.add(node.attr)
                elif isinstance(node, ast.keyword):
                    keywords.add(node.arg)
                if id(node) not in declared:
                    words.update(_string_words(node))
        elif path.endswith(DOCUMENTS):
            with open(path, encoding="utf-8", errors="replace") as handle:
                words.update(WORD.findall(handle.read()))
    return loads, keywords, words


def _unread_attributes():
    """``path:line -> attr`` for each ``self.<attr>`` stored under
    src/repro that no reader loads or spells in a string."""
    loads, _, words = _reads()
    reads = loads | words
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


def _unused_fields():
    """``path:line -> Class.field`` for each field of a ``@dataclass``
    under src/repro that no reader loads or passes as a keyword."""
    loads, keywords, _ = _reads()
    used = loads | keywords
    unused = {}
    for path in _package_modules():
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(decorator)
                    for decorator in node.decorator_list):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) \
                            and stmt.target.id not in used:
                        unused[f"{os.path.relpath(path, ROOT)}:"
                               f"{stmt.lineno}"] = \
                            f"{node.name}.{stmt.target.id}"
    return unused


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


def _yielded_timeouts():
    """``path:line`` of every ``yield`` of a ``timeout(...)`` or
    ``<obj>.timeout(...)`` call under src/repro."""
    found = []
    for path in _package_modules():
        for node in ast.walk(_tree(path)):
            if not (isinstance(node, ast.Yield)
                    and isinstance(node.value, ast.Call)):
                continue
            func = node.value.func
            name = (func.attr if isinstance(func, ast.Attribute)
                    else getattr(func, "id", None))
            if name == "timeout":
                found.append(f"{os.path.relpath(path, ROOT)}:{node.lineno}")
    return found


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


def test_every_dataclass_field_is_used():
    unused = _unused_fields()
    assert not unused, (
        f"dataclass fields nothing reads or sets; delete them: {unused}")


def test_every_import_is_used():
    unused = _unused_imports()
    assert not unused, f"imported but never used: {unused}"


def test_a_process_sleeps_by_yielding_its_delay():
    sites = _yielded_timeouts()
    assert not sites, (
        "yield the delay (`yield d`) instead of a Timeout built only to "
        f"be yielded: {sites}")
