"""Artifact files: JSON with a small self-describing header.

Every tool output carries the same envelope so files can be identified,
diffed, and traced back to the configuration that produced them.

Byte format: an artifact's text is exactly
``json.dumps(doc, sort_keys=True, indent=1) + "\\n"``. Keys are sorted, which
makes reruns byte-identical, and floats keep the shortest-repr encoding of
the json module, so they round-trip exactly. `write_artifact` produces that
text without the pure-Python indenting encoder: it walks the dicts itself and
hands each list of scalars to the C encoder in one call.

Writes are atomic: the text goes to a temporary file in the target's
directory, which then replaces the target, so a reader sees the old artifact
or table or the new one, never a partial file.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np

from .refmotion import InvalidInputError, _spec_field, _spec_list

TOOL_VERSION = "0.1.0"
_INDENT = " "


class ArtifactError(ValueError):
    """Raised when a file is missing, malformed, or of the wrong kind."""


def config_hash(config: dict) -> str:
    """Stable 12-hex-digit digest of a JSON-serializable configuration."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _encode(obj, level: int, parts: list[str]) -> None:
    """Append the `indent=1`, `sort_keys=True` JSON text of obj at an indent level."""
    if isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        pad = "\n" + _INDENT * (level + 1)
        sep = "{" + pad
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"artifact keys must be strings, got {key!r}")
            parts.append(sep + json.dumps(key) + ": ")
            _encode(obj[key], level + 1, parts)
            sep = "," + pad
        parts.append("\n" + _INDENT * level + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        pad = "\n" + _INDENT * (level + 1)
        close = "\n" + _INDENT * level + "]"
        if not isinstance(obj[0], (list, tuple, dict)):
            # The C encoder writes "[a,<pad>b]"; the indented form is
            # "[<pad>a,<pad>b<pad'>]". It indents a nested container wrongly, so
            # a list whose text has a bracket after the opening one (maybe only
            # in a string) is walked item by item if it holds a container.
            flat = json.dumps(obj, separators=("," + pad, ": "))
            if not (
                (flat.find("[", 1) >= 0 or "{" in flat)
                and any(isinstance(v, (list, tuple, dict)) for v in obj)
            ):
                parts.append("[" + pad + flat[1:-1] + close)
                return
        sep = "[" + pad
        for v in obj:
            parts.append(sep)
            _encode(v, level + 1, parts)
            sep = "," + pad
        parts.append(close)
    else:
        parts.append(json.dumps(obj))


def dumps_artifact(doc: dict) -> str:
    """`json.dumps(doc, sort_keys=True, indent=1)`, byte for byte."""
    parts: list[str] = []
    _encode(doc, 0, parts)
    return "".join(parts)


def write_artifact(path: str | Path, kind: str, payload: dict, cfg_hash: str = "") -> None:
    doc = {
        "format": f"modeloco/{kind}",
        "version": TOOL_VERSION,
        "config_hash": cfg_hash,
        "payload": payload,
    }
    _write_text(path, dumps_artifact(doc) + "\n")


def write_table(path: str | Path, header: list[str], rows) -> None:
    """A CSV file of the header row, then one line per row, each ended by CRLF."""
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *rows])
    _write_text(path, buf.getvalue())


def _write_text(path: str | Path, text: str) -> None:
    """Write text to a temporary file beside path, then move it over path."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_artifact(path: str | Path, kind: str) -> dict:
    path = Path(path)
    if not path.exists():
        raise ArtifactError(f"no such file: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"{path} is not valid JSON: {exc}") from exc
    expected = f"modeloco/{kind}"
    found = doc.get("format") if isinstance(doc, dict) else type(doc).__name__
    if found != expected:
        raise ArtifactError(f"{path}: expected format {expected}, got {found!r}")
    return _spec_field(doc, "payload", "the document", source=str(path))


def array_to_payload(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=float)
    return {"shape": list(a.shape), "data": a.ravel().tolist()}


def array_from_payload(p: dict, where: str = "an array") -> np.ndarray:
    """The array of an `array_to_payload` dict; InvalidInputError names `where`
    unless its data are numbers that fill its shape."""
    data, shape = (_spec_list(p, k, where, source="artifact") for k in ("data", "shape"))
    try:
        return np.array(data, dtype=float).reshape(shape)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"artifact: {where} is not a {shape} array: {exc}") from exc
