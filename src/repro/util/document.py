"""One document idiom: canonical JSON, one failure type, dispatch by id.

Every file this repo writes and reads back — bench records, analysis
exports, placement plans, stream manifests, merged fleet documents — is
a *document*: JSON whose ``schema`` / ``schema_version`` pair is its
descriptor, the way a startpoint's descriptor names the communication
module that can talk to it.  The module that writes a kind decides its
format: it builds the document (``x_document()``) and, beside that,
declares ``DOCUMENT = Schema(id, version, validate, title)`` restating
the format as checks.  The three decisions every kind shares are made
here, once:

* **serialisation** — :func:`dumps` / :func:`write`: sorted keys,
  compact separators (or ``indent`` for files people read), one
  trailing newline.  The compact form is :data:`encode_compact`, the
  ``encode`` of one shared ``JSONEncoder``; its one caller is
  :func:`dumps`.  The span spool writes its lines from fixed templates
  and encodes a span's non-null ``attrs`` with :func:`compact_encoder`,
  one C encoder per written block, where ``encode`` would build one
  per call;
* **failure** — :class:`DocumentError`, which :func:`validate` makes
  of every refusal a kind's validator raises;
* **dispatch** — :data:`SCHEMAS`, ``schema id -> owning module``,
  resolved by :func:`schema` on use.  The id comes from outside the
  program, so it is only ever a key into this literal table, never a
  module path to import.  Adding a kind is ``DOCUMENT = Schema(...)``
  in its module plus one line here.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import typing as _t
from json.encoder import c_make_encoder, encode_basestring_ascii

#: ``json.dumps`` keywords of the compact canonical form.
COMPACT: dict[str, _t.Any] = {"sort_keys": True, "separators": (",", ":")}

#: The one ``JSONEncoder`` of the compact form.  It keeps no state
#: between calls, so sharing it is safe.
_COMPACT_ENCODER = json.JSONEncoder(**COMPACT)

#: ``json.dumps(value, **COMPACT)`` without the per-call ``JSONEncoder``:
#: the same bytes.  :func:`dumps` is its one caller; ``encode`` still
#: builds a new C encoder (``c_make_encoder``) on every call.
encode_compact = _COMPACT_ENCODER.encode


def compact_encoder() -> _t.Callable[[object, int], _t.Sequence[str]]:
    """A C encoder writing :data:`encode_compact`'s bytes, for many
    values: ``"".join(encoder(value, 0))``.

    It is built with the arguments ``JSONEncoder.iterencode`` gives
    ``c_make_encoder``, so an unserialisable value raises ``TypeError``
    and a circular one ``ValueError``.  Its circular-check ``markers``
    dict lives as long as it does, and a failed encode leaves the ids
    it was inside there, which a later value may reuse: drop the
    encoder after any failure.
    """
    encoder = _COMPACT_ENCODER
    return c_make_encoder(
        {}, encoder.default, encode_basestring_ascii, encoder.indent,
        encoder.key_separator, encoder.item_separator, encoder.sort_keys,
        encoder.skipkeys, encoder.allow_nan)


class DocumentError(ValueError):
    """A document violates the format its schema id promises."""


@dataclasses.dataclass(frozen=True)
class Schema:
    """One document kind, declared beside the code that writes it."""

    id: str
    #: ``None`` for the two kinds recognised by shape, which carry no
    #: ``schema`` key: Chrome traces and JSONL shard lines.
    version: int | None
    #: ``validate(document, path) -> summary``; raises
    #: :class:`DocumentError`.  With ``path`` (where the document was
    #: read from) a validator also cross-checks the files it names.
    validate: _t.Callable[[_t.Any, "str | None"], dict[str, object]]
    #: What ``python -m repro.obs.validate`` calls the kind.
    title: str


#: Every document kind: schema id -> module declaring its ``Schema``.
SCHEMAS: dict[str, str] = {
    "repro.bench.record": "repro.bench.record",
    "repro.fleet.load_summary": "repro.fleet.merge",
    "repro.obs.critpath": "repro.obs.critpath",
    "repro.obs.graph": "repro.obs.graph",
    "repro.obs.stream.manifest": "repro.obs.stream",
    "repro.obs.stream.manifest.merged": "repro.obs.stream",
    "repro.obs.stream.shard": "repro.obs.stream",
    "repro.obs.timeline": "repro.obs.timeline",
    "repro.obs.trace": "repro.obs.export",
    "repro.place.plan": "repro.place.plan",
}


def dumps(document: object, *, indent: int | None = None) -> str:
    """The canonical serialisation, trailing newline included."""
    if indent is None:
        return encode_compact(document) + "\n"
    return json.dumps(document, sort_keys=True, indent=indent) + "\n"


def write(path: str, document: object, *,
          indent: int | None = None) -> None:
    with open(path, "w") as handle:
        handle.write(dumps(document, indent=indent))


#: Each schema id's :class:`Schema` once found: a later check costs one
#: dict probe, not an import and a scan of its owner's module names.
_FOUND: dict[str, Schema] = {}


def schema(schema_id: object) -> Schema:
    """The registered :class:`Schema` (imports its owner on first use)."""
    if schema_id.__class__ is str and schema_id in _FOUND:
        return _FOUND[schema_id]  # type: ignore[index]
    owner = SCHEMAS.get(schema_id) if isinstance(schema_id, str) else None
    if owner is None:
        raise DocumentError(f"unknown schema {schema_id!r} "
                            f"(known: {', '.join(SCHEMAS)})")
    for declared in vars(importlib.import_module(owner)).values():
        if isinstance(declared, Schema) and declared.id == schema_id:
            _FOUND[declared.id] = declared
            return declared
    raise DocumentError(f"{owner} declares no Schema for {schema_id!r}")


def check(document: object, path: str | None = None
          ) -> tuple[Schema, dict[str, object]]:
    """Validate a parsed document through the owner its ``schema`` names."""
    if not isinstance(document, dict):
        raise DocumentError("top level must be an object, got "
                            f"{type(document).__name__}")
    found = schema(document.get("schema"))
    return found, validate(found, document, path)


def validate(kind: Schema, document: _t.Any,
             path: str | None = None) -> dict[str, object]:
    """Check ``document`` as a ``kind``: its ``schema_version`` (keyed
    kinds), then its owner's validator.  Every refusal is a
    :class:`DocumentError` naming the kind.

    Validators check what they know and index the rest, so a document
    of the wrong shape (a ``None`` where a list was, a missing nested
    key) can fail inside one as a bare lookup or type error.  Those are
    refusals too, chained from the original.
    """
    if kind.version is not None and \
            document.get("schema_version") != kind.version:
        raise DocumentError(
            f"{kind.id}: schema_version is "
            f"{document.get('schema_version')!r}, this code reads "
            f"{kind.version!r}")
    try:
        return kind.validate(document, path)
    except DocumentError as error:
        raise DocumentError(f"{kind.id}: {error}") from error
    except (TypeError, KeyError, AttributeError, IndexError) as error:
        raise DocumentError(
            f"{kind.id}: malformed document "
            f"({type(error).__name__}: {error})") from error


def load(path: str, schema_id: str) -> dict[str, object]:
    """Read the ``schema_id`` document at ``path``; errors name the file.

    The reader's door: structural checks only (``validate`` gets no
    path, so nothing beside the file is opened).
    """
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        found = document.get("schema") if isinstance(document, dict) else None
        if found != schema_id:
            raise DocumentError(f"expected schema {schema_id!r}, "
                                f"found {found!r}")
        validate(schema(schema_id), document)
    except json.JSONDecodeError as error:
        raise DocumentError(f"{path}: not valid JSON: {error}") from error
    except UnicodeDecodeError as error:
        raise DocumentError(f"{path}: not UTF-8: {error}") from error
    except DocumentError as error:
        raise DocumentError(f"{path}: {error}") from error
    return document
