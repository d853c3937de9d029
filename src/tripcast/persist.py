"""Model persistence: a self-checking JSON document per fitted model.

Floats survive the round trip exactly (shortest-repr JSON encoding), so a
loaded model reproduces the original's predictions bit for bit. The
payload is guarded by a SHA-256 checksum and a format version; truncation,
corruption, or an unknown version all fail loudly instead of returning a
half-usable model. A document is written as compact JSON with sorted keys,
the form its checksum is taken over after parsing, so an indented document
(as earlier builds wrote) loads too.

Format version 5 stores each tree as flat per-node lists (``feature``,
``threshold``, ``right``, ``value``; a left child is always the next node,
so it is derived) and each ensemble's ``settings``: exactly the settings
its kind takes (:data:`tripcast.ensembles.SETTINGS`), checked on load as a
fit checks them. A document of an older version is refused, naming its
version. Because a document comes from outside the program, the loader
also checks that each tree's arrays form a tree before it is used (see
:meth:`tripcast.trees.Tree.from_dict`), and refuses as a ``PersistError``
a path that is not a regular file, a file over ``MAX_DOCUMENT_BYTES``,
bytes that are not UTF-8, nesting deeper than the JSON parser recurses
and integers past Python's digit limit.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .checks import input_file
from .errors import PersistError
from .registry import model_from_payload

FORMAT_NAME = "tripcast-model"
FORMAT_VERSION = 5

#: Largest model file :func:`load_model` reads (256 MiB). The largest registry
#: documents at 40k training rows are the default forests of unlimited depth:
#: 86 MB for ``rf`` and 83 MB for ``br`` on the benchmark's serve table.
MAX_DOCUMENT_BYTES = 1 << 28


def _canonical(doc: dict) -> str:
    """Compact JSON with sorted keys: the bytes the checksum covers, and the written form."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def model_document(model) -> dict:
    """The persistable document for a fitted registry model."""
    kind = getattr(model, "kind", None)
    to_payload = getattr(model, "to_payload", None)
    if kind is None or to_payload is None:
        raise PersistError(f"object of type {type(model).__name__} is not persistable")
    body = {"format": FORMAT_NAME, "format_version": FORMAT_VERSION, "kind": kind, "payload": to_payload()}
    return {**body, "checksum": hashlib.sha256(_canonical(body).encode("utf-8")).hexdigest()}


def dumps_model(model) -> str:
    return _canonical(model_document(model))


def save_model(model, path: str | Path) -> None:
    Path(path).write_text(dumps_model(model), encoding="utf-8")


def loads_model(text: str):
    try:
        return _read_document(text)
    except RecursionError as exc:  # while parsing, or in a check of a document parsed just short of it
        raise PersistError("model document is nested too deeply") from exc


def _read_document(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PersistError(f"model document is not valid JSON (truncated?): {exc}") from exc
    except ValueError as exc:  # an integer past Python's digit limit
        raise PersistError(f"model document has a number it cannot read: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise PersistError("not a tripcast model document")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise PersistError(
            f"unsupported model format version {version!r} (this build reads {FORMAT_VERSION})"
        )
    stored = doc.get("checksum")
    body = {k: v for k, v in doc.items() if k != "checksum"}
    actual = hashlib.sha256(_canonical(body).encode("utf-8")).hexdigest()
    if stored != actual:
        raise PersistError("model document checksum mismatch (corrupted file)")
    return model_from_payload(doc.get("kind"), doc.get("payload"))


def load_model(path: str | Path):
    """Read and check the model document at ``path``.

    Loading holds about eight times the document's size in memory, because
    ``json.loads`` builds Python lists of every node's numbers before the
    trees are checked: the 85.7 MB default ``rf`` document (40k rows of the
    seed-1 ``serve`` table) raised a fresh process's ``ru_maxrss`` from 34
    to 739 MB. A document at :data:`MAX_DOCUMENT_BYTES` was not measured.
    """
    path = input_file(path, "model file", PersistError)
    size = path.stat().st_size
    if size > MAX_DOCUMENT_BYTES:
        raise PersistError(f"model file {path} has {size} bytes, over the {MAX_DOCUMENT_BYTES} a document may have")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise PersistError(f"model file {path} is not UTF-8: {exc}") from exc
    return loads_model(text)
