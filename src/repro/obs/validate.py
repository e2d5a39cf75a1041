"""Validate repro documents (``python -m repro.obs.validate PATH...``).

Every kind of file the repo writes is checked by the module that writes
it: the document's ``schema`` id is looked up in
:data:`repro.util.document.SCHEMAS` and the owner's validator runs over
it (docs/ARCHITECTURE.md, "Documents", lists each kind and what is
checked).  This module adds only what an id cannot express — the two
formats that carry no ``schema`` key and are recognised by shape:

* an object with ``traceEvents`` is a Chrome trace-event export;
* a file that is not one JSON value is a JSONL stream shard.

Given the document's path, validators also cross-check the files it
names (a manifest's shards: existence, byte length, sha256, record
count).  Used by the CI smoke jobs, ``--selfcheck`` and the test suite:
one ``OK:`` or ``INVALID:`` line per path, exit 1 if any path failed.
"""

from __future__ import annotations

import json
import sys
import typing as _t

from ..util import document

TRACE = "repro.obs.trace"
SHARD = "repro.obs.stream.shard"


def validate_file(path: str) -> tuple[document.Schema, dict[str, object]]:
    """Validate ``path``; returns its kind's ``Schema`` and a summary."""
    with open(path) as handle:
        try:
            parsed = json.load(handle)
        except json.JSONDecodeError:
            parsed = None  # not one JSON value: JSONL
        if parsed is None or (isinstance(parsed, dict) and "k" in parsed
                              and "schema" not in parsed):
            # Shard lines; a one-record shard parses as one object.
            handle.seek(0)
            kind = document.schema(SHARD)
            return kind, document.validate(kind, handle, path)
    if isinstance(parsed, dict) and "schema" in parsed:
        return document.check(parsed, path)
    kind = document.schema(TRACE)
    return kind, document.validate(kind, parsed, path)


def main(argv: _t.Sequence[str] | None = None) -> int:
    paths = list(sys.argv[1:] if argv is None else argv)
    if not paths:
        print("usage: python -m repro.obs.validate PATH...",
              file=sys.stderr)
        return 2
    status = 0
    for path in paths:
        try:
            kind, summary = validate_file(path)
        except (OSError, ValueError) as error:
            print(f"INVALID: {path}: {error}", file=sys.stderr)
            status = 1
            continue
        detail = ", ".join(f"{name}={value}"
                           for name, value in summary.items())
        print(f"OK: {kind.title}: {detail} ({path})")
    return status


if __name__ == "__main__":  # pragma: no cover - CLI shim
    sys.exit(main())
