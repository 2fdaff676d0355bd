"""The one JSON decoder and encoder of pipeline records: ``decode`` reads
exactly what ``json.loads`` reads, and ``write_jsonl`` writes exactly the
lines ``json.dumps(record, sort_keys=True)`` gives."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provlens.artifacts import decode, read_jsonl, write_json, write_jsonl

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12)
JSON_SPACE = st.text(alphabet=" \t\n\r", max_size=4)


def _outcome(parse, text):
    """What ``parse`` makes of ``text``: its value, written out so that NaN
    equals NaN and 1 differs from 1.0 and from true, or ValueError."""
    try:
        return json.dumps(parse(text))
    except ValueError:
        return ValueError


@settings(max_examples=400, deadline=None)
@given(st.text())
def test_decode_agrees_with_json_loads_on_any_text(text):
    assert _outcome(decode, text) == _outcome(json.loads, text)


@settings(max_examples=200, deadline=None)
@given(JSON_VALUES, JSON_SPACE, JSON_SPACE, st.booleans())
def test_decode_agrees_with_json_loads_on_padded_json(value, before, after,
                                                      ascii_only):
    text = before + json.dumps(value, ensure_ascii=ascii_only) + after
    assert _outcome(decode, text) == _outcome(json.loads, text)
    assert decode(text) == json.loads(text)


@pytest.mark.parametrize("text", [
    "", " ", "[1", "2]", "{} {}", '{"a": 1}, {"a": 2}', "1 2", "﻿1",
    "\x0c1", "1\x0b", "NaN", "-Infinity", '"\\ud800"', "[1,]", "01"])
def test_decode_agrees_with_json_loads_at_the_edges(text):
    assert _outcome(decode, text) == _outcome(json.loads, text)


RECORDS = [
    {"name": "café 日本 \U0001f600", "path": "/tmp/ü"},
    {"small": 0.1, "tiny": 1e-300, "negative_zero": -0.0, "big": 1e300},
    {"first_ts": 1700000000000000000, "last_ts": 9223372036854775807},
    {"nested": {"z": [1, [2, {"b": None, "a": True}]], "a": {}}, "list": []},
    {"b": 1, "a": 2, "é": 3, "A": 4},
]


def test_write_jsonl_lines_equal_json_dumps(tmp_path):
    path = tmp_path / "records.jsonl"
    write_jsonl(path, RECORDS)
    assert path.read_text(encoding="utf-8").splitlines() == [
        json.dumps(record, sort_keys=True) for record in RECORDS]
    assert read_jsonl(path, path.read_bytes()) == RECORDS


@settings(max_examples=60, deadline=None)
@given(st.lists(st.dictionaries(st.text(max_size=8), JSON_VALUES,
                                max_size=4), max_size=4))
def test_write_jsonl_and_write_json_agree_with_json_dumps(tmp_path_factory,
                                                          records):
    directory = tmp_path_factory.mktemp("records")
    write_jsonl(directory / "records.jsonl", records)
    write_json(directory / "records.json", records)
    lines = (directory / "records.jsonl").read_text(encoding="utf-8")
    assert lines == "".join(json.dumps(record, sort_keys=True) + "\n"
                            for record in records)
    assert (directory / "records.json").read_text(encoding="utf-8") == (
        json.dumps(records, sort_keys=True) + "\n")
