"""The one CSV dialect and JSON layout of the toolkit's text artifacts, checked
against frozen copies of the writers they replaced."""
import csv
import io
import json
import struct
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from embprobe.fileio import read_csv, reading, write_csv, write_json


def _reference_csv(rows) -> bytes:
    """The csv.writer dialect the manifest, trait and distance writers used."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().encode("utf-8")


def _reference_json(obj) -> bytes:
    """cli._dump_json as it was."""
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode("utf-8")


def _written(write, obj) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out"
        write(path, obj)
        return path.read_bytes()


FIELDS = st.text(alphabet=st.characters(blacklist_categories=("Cs",)))
ROWS = st.lists(st.lists(FIELDS, min_size=1, max_size=4), max_size=5)


@settings(max_examples=300, deadline=None)
@given(rows=ROWS)
def test_write_csv_matches_csv_writer_without_cr(rows):
    rows = [[field.replace("\r", "") for field in row] for row in rows]
    assert _written(write_csv, rows) == _reference_csv(rows)


@settings(max_examples=300, deadline=None)
@given(width=st.integers(1, 4), data=st.data())
def test_write_csv_reads_back_every_field(width, data):
    """Fields holding CR (which csv.writer left unquoted) read back too."""
    header = [f"c{i}" for i in range(width)]
    rows = data.draw(st.lists(st.lists(FIELDS | st.sampled_from(["\r", "a\rb", "\r\n", '"\r,']),
                                       min_size=width, max_size=width), max_size=5))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_csv(path, [header, *rows])
        assert [rec for _, rec in read_csv(path, header)] == rows


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | FIELDS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(FIELDS, inner, max_size=3),
    max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(obj=JSON)
def test_write_json_matches_the_dump_it_replaced(obj):
    assert _written(write_json, obj) == _reference_json(obj)


def test_read_csv_numbers_records_and_skips_blank_ones(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b'a,b\n1,"two\nlines"\n\n3,4\n')
    assert list(read_csv(path, ("a", "b"))) == [
        ("line 2", ["1", "two\nlines"]), ("line 4", ["3", "4"])]


@pytest.mark.parametrize("text, message", [
    ("", "line 1: bad header None"),
    ("a,c\n1,2\n", "line 1: bad header ['a', 'c']"),
    ("a,b\n1,2\n3\n", "line 3: expected 2 fields, got 1"),
    ('a,b\n1,"' + "x" * 140_000 + "\n", "line 2: field larger than field limit"),
])
def test_read_csv_faults_name_path_and_line(tmp_path, text, message):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        list(read_csv(path, ("a", "b")))
    assert str(info.value).startswith(f"{path}: ")
    assert message in str(info.value)


def _raise(fault):
    raise fault


@pytest.mark.parametrize("fault, message", [
    (lambda: _raise(ValueError("bad value")), "bad value"),
    (lambda: struct.unpack_from("<I", b"\x00"), "truncated file"),
    (lambda: b"\xff".decode("utf-8"), "not UTF-8 text (invalid start byte)"),
    (lambda: yaml.safe_load("a: [b"), "while parsing a flow sequence"),
], ids=["ValueError", "struct.error", "UnicodeDecodeError", "YAMLError"])
def test_reading_names_the_innermost_file_once(tmp_path, fault, message):
    outer, inner = tmp_path / "outer.csv", tmp_path / "inner.csv"
    with pytest.raises(ValueError) as info:
        with reading(outer):
            with reading(inner):
                fault()
    assert str(info.value).startswith(f"{inner}: {message}")
    assert str(info.value).count(str(tmp_path)) == 1


def test_reading_leaves_other_faults_alone(tmp_path):
    with pytest.raises(KeyError):
        with reading(tmp_path / "t.json"):
            _raise(KeyError("train"))
    with pytest.raises(FileNotFoundError):
        with reading(tmp_path / "missing.json"):
            (tmp_path / "missing.json").read_bytes()
