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
fit checks them. Earlier documents are rejected, naming their version:
version 4 stored a six-field ``config`` for every ensemble kind, including
fields the kind did not read; version 3 also stored ``left`` lists and
nested a tree config in the ensemble config; version 2 also carried
``min_samples_leaf``, ``min_samples_split``, ``max_bins`` and the AdaBoost
``loss``; and version 1 nested one object per node. Because a document
comes from outside the program, the loader also checks that each tree's
arrays form a tree before it is used (see
:meth:`tripcast.trees.Tree.from_dict`).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .errors import PersistError
from .registry import model_from_payload

FORMAT_NAME = "tripcast-model"
FORMAT_VERSION = 5


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
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PersistError(f"model document is not valid JSON (truncated?): {exc}") from exc
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
    path = Path(path)
    if not path.exists():
        raise PersistError(f"model file not found: {path}")
    return loads_model(path.read_text(encoding="utf-8"))
