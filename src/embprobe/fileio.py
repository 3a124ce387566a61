"""Atomic file writes shared by every writer in the toolkit, the one CSV
dialect and JSON layout its text artifacts use, and the one read contract of
its readers: an input file loads, or its fault raises ValueError naming it."""
from __future__ import annotations

import csv
import io
import itertools
import json
import os
import struct
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path


def atomic_write_bytes(path, data: bytes) -> None:
    """Write via a temp file in the same directory, then rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_json(path, obj) -> None:
    """`obj` as UTF-8 JSON: keys sorted, two-space indent, a final newline."""
    atomic_write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


class ReadError(ValueError):
    """A fault in an input file, with a message that names the file."""


@contextmanager
def reading(path):
    """Parse the input file `path` inside this block: a ValueError (invalid
    UTF-8: `not UTF-8 text`), a short struct read (`truncated file`) or a YAML
    error raised in it becomes one ValueError naming `path`, once."""
    try:
        yield
    except ReadError:
        raise
    except struct.error:
        raise ReadError(f"{path}: truncated file") from None
    except UnicodeDecodeError as exc:
        raise ReadError(f"{path}: not UTF-8 text ({exc.reason})") from None
    # a YAML error can only come from a yaml that a reader has imported
    except (ValueError, getattr(sys.modules.get("yaml"), "YAMLError", ValueError)) as exc:
        raise ReadError(f"{path}: {exc}") from None


def read_utf8_text(path) -> str:
    with reading(path):
        return Path(path).read_bytes().decode("utf-8")


def read_json(path, loads=json.loads) -> dict:
    """The JSON object that `loads` (yaml.safe_load for YAML) parses from UTF-8 `path`."""
    with reading(path):
        doc = loads(read_utf8_text(path))
        if not isinstance(doc, dict):
            raise ValueError(f"expected a mapping, got {type(doc).__name__}")
        return doc


def read_jsonl(path):
    """Yield `(where, obj)`, `where` "line N", for each non-blank line of a JSON-lines file."""
    with reading(path):
        # newline=None splits lines the way a file opened in text mode does
        for lineno, line in enumerate(io.StringIO(read_utf8_text(path), newline=None), start=1):
            if not line.strip():
                continue
            where = f"line {lineno}"
            try:
                obj = json.loads(line)
            except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
                raise ValueError(f"{where}: bad JSON ({getattr(exc, 'msg', exc)})") from None
            if not isinstance(obj, dict):
                raise ValueError(f"{where}: expected an object")
            yield where, obj


def _csv_field(text: str) -> str:
    # a field holding a comma, a double quote, CR or LF is double-quoted, with
    # inner quotes doubled; csv.reader reads every field back unchanged
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path, rows) -> None:
    """Rows of string fields (the header, if any, first) as UTF-8 CSV records,
    each ending in LF; a row of one empty field is `""`, not a blank line."""
    atomic_write_text(path, "".join((",".join(map(_csv_field, row)) or '""') + "\n"
                                    for row in rows))


def read_csv(path, header=None):
    """Yield `(where, fields)` for each non-blank record of the UTF-8 CSV file
    `path`; `where` is "line N", N counting records from 1.

    With `header`, record 1 must equal it and is not yielded, and every other
    record must have as many fields.
    """
    with reading(path):
        records = csv.reader(io.StringIO(read_utf8_text(path), newline=""))
        for lineno in itertools.count(1):
            where = f"line {lineno}"
            try:
                rec = next(records, None)
            except csv.Error as exc:  # e.g. a field over csv's size limit
                raise ValueError(f"{where}: {exc}") from None
            if header is not None and lineno == 1:
                if rec != list(header):
                    raise ValueError(f"{where}: bad header {rec!r}")
            elif rec is None:
                return
            elif rec:
                if header is not None and len(rec) != len(header):
                    raise ValueError(f"{where}: expected {len(header)} fields, got {len(rec)}")
                yield where, rec
