"""Atomic file writes shared by every writer in the toolkit, the one CSV
dialect and JSON layout its text artifacts use, and the UTF-8 text read shared
by its text readers."""
from __future__ import annotations

import csv
import io
import itertools
import json
import os
import tempfile
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


def read_utf8_text(path) -> str:
    """The whole file as text; invalid UTF-8 raises ValueError naming `path`."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None


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
    `path`; `where` is "<path>: line N", N counting records from 1.

    With `header`, record 1 must equal it and is not yielded, and every other
    record must have as many fields. Any fault raises ValueError naming `path`.
    """
    records = csv.reader(io.StringIO(read_utf8_text(path), newline=""))
    for lineno in itertools.count(1):
        where = f"{path}: line {lineno}"
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
