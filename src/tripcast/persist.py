"""Model persistence: a self-checking two-line JSON document per fitted model.

Format 7 is a header line, ``{"format":"tripcast-model","format_version":7,
"sha256":...}``, and a body line, ``{"kind":...,"payload":...}`` in compact
JSON with sorted keys, each ending in a newline. The ``sha256`` covers every
byte after the header line as written, so a save serializes the body once
and a load hashes it before it parses it. Each tree is its ``feature``,
``threshold`` and ``value`` lists in level order, its children implied
(:class:`tripcast.trees.Tree`). Floats round-trip exactly, so a
loaded model predicts bit for bit as the original did and dumps to the same
text. A document comes from outside the program: the loader refuses as a
``PersistError`` an older version, naming it (formats 1 to 5 were one line,
read as the header), a checksum mismatch, a file over ``MAX_DOCUMENT_BYTES``
and all that the JSON parser, the payload checks (exactly the ``settings``
an ensemble's kind takes, :data:`tripcast.ensembles.SETTINGS`) and
:meth:`tripcast.trees.Tree.from_dict` refuse.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import tempfile
from pathlib import Path
from typing import Callable

from .checks import read_input_text, require
from .errors import PersistError
from .registry import model_from_payload

FORMAT_NAME = "tripcast-model"
FORMAT_VERSION = 7

#: Largest model file :func:`load_model` reads (256 MiB). The largest registry
#: documents at 40k training rows are the default forests of unlimited depth:
#: 64 MB for ``rf`` and 62 MB for ``br`` on the benchmark's serve table.
MAX_DOCUMENT_BYTES = 1 << 28


def write_atomically(path: Path, produce: Callable[[io.TextIOBase], None]) -> None:
    """Write ``path`` through ``produce`` via a temp sibling + rename; no partial file survives a failure."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            produce(handle)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def dumps_model(model) -> str:
    """The document of a fitted registry model: its header line, then its body line."""
    kind = getattr(model, "kind", None)
    to_payload = getattr(model, "to_payload", None)
    if kind is None or to_payload is None:
        raise PersistError(f"object of type {type(model).__name__} is not persistable")
    body = json.dumps({"kind": kind, "payload": to_payload()}, sort_keys=True, separators=(",", ":")) + "\n"
    header = {"format": FORMAT_NAME, "format_version": FORMAT_VERSION, "sha256": _sha256(body)}
    return json.dumps(header, separators=(",", ":")) + "\n" + body


def save_model(model, path: str | Path) -> None:
    """Write ``model``'s document to ``path`` atomically, making its directory if it is missing."""
    write_atomically(Path(path), lambda handle: handle.write(dumps_model(model)))


def _parse(line: str):
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise PersistError(f"model document is not valid JSON (truncated?): {exc}") from exc
    except ValueError as exc:  # an integer past Python's digit limit
        raise PersistError(f"model document has a number it cannot read: {exc}") from exc
    except RecursionError as exc:
        raise PersistError("model document is nested too deeply") from exc


def loads_model(text: str):
    header_line, _, body = text.partition("\n")
    del text  # the body is a copy: hold one, not two, while it is parsed and checked
    header = _parse(header_line)
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise PersistError("not a tripcast model document")
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise PersistError(f"unsupported model format version {version!r} (this build reads {FORMAT_VERSION})")
    if header.get("sha256") != _sha256(body):
        raise PersistError("model document checksum mismatch (corrupted file)")
    doc = _parse(body)
    del body
    require(isinstance(doc, dict), "body is not an object")
    return model_from_payload(doc.get("kind"), doc.get("payload"))


def load_model(path: str | Path):
    """Read and check the model document at ``path``.

    Loading holds about seven times the document's size, as ``json.loads``
    builds an object for every node number before the trees are checked: a
    fresh process's ``ru_maxrss`` rose from 33 to 123 MB on a 12.9 MB 20-tree
    ``rf`` document and to 471 MB on a 64.4 MB 100-tree one (both fit on 40k
    rows of the seed-1 ``serve`` table). :data:`MAX_DOCUMENT_BYTES` was not tried.
    """
    return loads_model(read_input_text(path, "model file", MAX_DOCUMENT_BYTES, PersistError))
