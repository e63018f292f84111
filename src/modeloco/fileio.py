"""Artifact files: JSON with a small self-describing header.

Every tool output carries the same envelope so files can be identified,
diffed, and traced back to the configuration that produced them.

Byte format: an artifact's text is exactly
``json.dumps(doc, sort_keys=True, indent=1) + "\\n"``. Keys are sorted, which
makes reruns byte-identical, and floats keep the shortest-repr encoding of
the json module, so they round-trip exactly. `write_artifact` produces that
text without the pure-Python indenting encoder: it walks the dicts, lists
and arrays itself, and writes each as its items' texts joined by a comma
and the indent.

One rule writes numbers. Float data in a payload is a float64 numpy array
(the "data" of an `array_to_payload` dict, a library's samples), never a
list of Python floats. A 1-D one is written, as the JSON list json writes
for its `tolist()`, by `repr_join` straight from its buffer: the compiled
physics kernel (`_physics.c`) formats it once a command has loaded the
kernel to step physics, and `float.__repr__` before that, so that a command
which steps none pays no load or build to write. Every other value is
written item by item: a 2-D array row by row, and an array holding a NaN or
an infinity in json's text. Tables follow the same rule: `write_table` takes
float64 and integer column arrays, and one `repr_join` call writes a table's
rows, so no cell holds a numpy scalar's repr.

Writes are atomic: the text goes to a temporary file in the target's
directory, which then replaces the target, so a reader sees the old artifact
or table or the new one, never a partial file.
"""

from __future__ import annotations

import csv
import ctypes
import functools
import hashlib
import io
import json
import math
import os
from pathlib import Path

import numpy as np

from . import sim
from .refmotion import InvalidInputError, _spec_field, _spec_list

TOOL_VERSION = "0.1.0"
_INDENT = " "


class ArtifactError(ValueError):
    """Raised when a file is missing, malformed, or of the wrong kind."""


def config_hash(config: dict) -> str:
    """Stable 12-hex-digit digest of a JSON-serializable configuration."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


@functools.cache
def _pow5_tables() -> tuple[ctypes.Array, ctypes.Array]:
    """Ryu's 125-bit power-of-5 tables as (low, high) uint64 pairs, which
    the kernel's `repr_join` reads: 2 ** (bitlength(5 ** i) - 1 + 125) // 5 ** i + 1
    for i < 342, and 5 ** i shifted to 125 bits for i < 326."""
    powers = [5**i for i in range(342)]
    inverse = [(1 << p.bit_length() + 124) // p + 1 for p in powers]
    scaled = [(p << 125) >> p.bit_length() for p in powers[:326]]
    return tuple(
        (ctypes.c_uint64 * (2 * len(table)))(*(w for v in table for w in (v & 2**64 - 1, v >> 64)))
        for table in (inverse, scaled)
    )


def repr_join(values: np.ndarray, sep: str) -> str | None:
    """`sep.join(map(repr, values.tolist()))` for a 1-D float64 array; None if
    a value is not finite. Once this process has loaded the kernel, the
    kernel writes it, without CPython's bignum dtoa; until then, or if the
    kernel was built without a formatter, `float.__repr__` does. It never
    loads the kernel, so a command that steps no physics pays nothing to
    write."""
    if not (isinstance(values, np.ndarray) and values.dtype == np.float64 and values.ndim == 1):
        raise TypeError("repr_join takes a 1-D float64 array")
    join = getattr(sim.loaded_kernel(), "repr_join", None)
    if join is None:
        values = values.tolist()
        return sep.join(map(float.__repr__, values)) if all(map(math.isfinite, values)) else None
    return _kernel_rows(join, values, len(values), None, sep, "")


def _kernel_rows(join, values: np.ndarray, width: int, ints: bytes | None, sep: str,
                 end: str) -> str | None:
    """The kernel formatter `join`'s text of the float64 values as rows of
    `width`, each row's values joined by sep and followed by end, the values
    of each column j with ints[j] set as the integers they hold; None if a
    value is not finite."""
    data = np.ascontiguousarray(values)
    sep_bytes, end_bytes = sep.encode(), end.encode()
    out = ctypes.create_string_buffer(len(data) * (24 + max(len(sep_bytes), len(end_bytes))))
    length = join(len(data), data.ctypes.data, width, ints, sep_bytes, len(sep_bytes),
                  end_bytes, len(end_bytes), *_pow5_tables(), out)
    return None if length < 0 else ctypes.string_at(out, length).decode()


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
    elif isinstance(obj, (list, tuple, np.ndarray)):
        if len(obj) == 0:
            parts.append("[]")
            return
        pad = "\n" + _INDENT * (level + 1)
        floats = isinstance(obj, np.ndarray) and obj.dtype == np.float64 and obj.ndim == 1
        text = repr_join(obj, "," + pad) if floats else None
        if text is not None:
            parts.append("[" + pad + text)
        else:
            sep = "[" + pad
            for v in obj:
                parts.append(sep)
                _encode(v, level + 1, parts)
                sep = "," + pad
        parts.append("\n" + _INDENT * level + "]")
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


def write_table(path: str | Path, header: list[str], columns: list[np.ndarray]) -> None:
    """A CSV file of the header row, then one line per table row, each ended
    by CRLF: the text csv writes for rows of Python numbers.

    `columns` holds the table's columns in header order, as arrays of one
    length: a 1-D array is one column, a 2-D one a block of columns. Float64
    columns are written as repr writes their values and integer ones, which
    must lie within 2 ** 53 of 0, as str does. Once this process has loaded
    the kernel, one `repr_join` call writes all the rows; until then, or for
    a table with a value that is not finite, csv does."""
    blocks = [block[:, None] if block.ndim == 1 else block for block in columns]
    ints = bytes(block.dtype.kind in "iu" for block in blocks for _ in block.T)
    for block in blocks:
        if not (block.dtype == np.float64 or block.dtype.kind in "iu"):
            raise TypeError(f"table columns must be float64 or integer arrays, got {block.dtype}")
        if block.dtype.kind in "iu" and ((block > 2**53) | (block < -(2**53))).any():
            raise ValueError("integer table cells must lie within 2 ** 53 of 0")
    table = np.concatenate(blocks, axis=1, dtype=np.float64) if blocks else np.empty((0, 0))
    join = getattr(sim.loaded_kernel(), "repr_join", None)
    text = None if join is None else _kernel_rows(join, table.ravel(), len(ints), ints, ",",
                                                     "\r\n")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    if text is None:
        writer.writerows([int(v) if i else v for v, i in zip(row, ints)]
                         for row in table.tolist())
    else:
        buf.write(text)
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


def read_json(path: str | Path):
    """The JSON value of a file; ArtifactError, naming the file, unless it is
    a regular file of UTF-8 JSON text that nests no deeper than the parser
    can follow."""
    path = Path(path)
    if not path.exists():
        raise ArtifactError(f"no such file: {path}")
    if not path.is_file():
        raise ArtifactError(f"{path} is not a regular file")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ArtifactError(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ArtifactError(f"{path} nests its JSON too deeply to read") from exc


def read_artifact(path: str | Path, kind: str) -> dict:
    doc = read_json(path)
    expected = f"modeloco/{kind}"
    found = doc.get("format") if isinstance(doc, dict) else type(doc).__name__
    if found != expected:
        raise ArtifactError(f"{path}: expected format {expected}, got {found!r}")
    if doc.get("version") != TOOL_VERSION:
        raise ArtifactError(
            f"{path}: written by version {doc.get('version')!r}, this tool reads {TOOL_VERSION!r}"
        )
    return _spec_field(doc, "payload", "the document", source=str(path))


def array_to_payload(a: np.ndarray) -> dict:
    """{"shape": a's shape as a list, "data": a C-contiguous 1-D float64 copy
    of a's values in C order}; the writer formats data straight from its buffer."""
    a = np.array(a, dtype=np.float64, order="C")
    return {"shape": list(a.shape), "data": a.reshape(-1)}


def array_from_payload(p: dict, where: str = "an array") -> np.ndarray:
    """The array of an `array_to_payload` dict, in memory (data an array) or
    read back from its text (data a list), as a new array; InvalidInputError
    names `where` unless its data are numbers that fill its shape."""
    data = _spec_field(p, "data", where, source="artifact")
    if not isinstance(data, (list, np.ndarray)):
        raise InvalidInputError(f"artifact: 'data' of {where} must be a list")
    shape = _spec_list(p, "shape", where, source="artifact")
    try:
        return np.array(data, dtype=float).reshape(shape)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"artifact: {where} is not a {shape} array: {exc}") from exc
