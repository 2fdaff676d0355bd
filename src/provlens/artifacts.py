"""The one module that opens pipeline artifacts.

Headers are JSON, record streams are JSONL (one object per line) and matrices
are raw little-endian blobs. Writers create the parent directory and write
sorted keys plus a trailing newline, so equal objects give equal bytes.
``decode`` and ``encode`` are the one JSON decoder and encoder: ``decode``
reads every JSON document, agent replies and config included, and each
record is encoded to the bytes of ``json.dumps(record, sort_keys=True)``,
without the per-call set-up of ``json.loads`` and ``json.dumps``.
Each writer of an artifact set names its files in one ``*_paths`` dict and
calls ``seal`` last; its loader calls ``check_seal`` first and decodes the
bytes that check returned, so it decodes exactly the bytes the seal covers,
each file read once, and checks no field that only a hand edit could break.
Readers build records inside one error guard and raise ArtifactError
naming the file when it is missing, does not decode, differs from its seal or
is a blob that does not fit the shape its header gives, or when a record of
an unsealed input lacks a field or holds one of another JSON type; the CLI
reports that as exit code 2. The event input of ``ingest`` is opened through
the same guard.
"""

from __future__ import annotations

import hashlib
import json
import reprlib
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import fields
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .errors import ArtifactError

_raw_decode = json.JSONDecoder().raw_decode
_JSON_SPACE = " \t\n\r"
# The Python types of each JSON type a ``record`` field may be declared as.
_JSON_TYPES = {"string": (str,), "number": (int, float), "null": (type(None),)}


def decode(text: str):
    """The JSON value that ``text`` holds, with JSON whitespace around it.
    Anything after it, or nesting too deep to decode, raises ValueError."""
    text = text.strip(_JSON_SPACE)
    try:
        value, end = _raw_decode(text)
    except RecursionError:
        raise ValueError("nested past the decoder's depth") from None
    if end != len(text):
        raise ValueError(f"extra data at column {end + 1}")
    return value


# The text of a JSON value with sorted keys, ``json.dumps(obj,
# sort_keys=True)``, from one encoder; ``json.dumps`` builds one per call.
encode = json.JSONEncoder(sort_keys=True).encode


@contextmanager
def reading(path):
    """The error guard: a missing or undecodable ``path``, or a record built
    from it that lacks a field or breaks a condition, raises ArtifactError
    naming ``path``."""
    try:
        yield
    except FileNotFoundError as exc:
        raise ArtifactError(f"missing artifact {path}", path=str(path)) from exc
    except (OSError, ValueError, KeyError) as exc:  # decoding and fields
        raise ArtifactError(f"unreadable artifact {path}: {exc}",
                            path=str(path)) from exc


def parent_made(path) -> Path:
    """``path`` as a Path, with its parent directory made."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def read_json(path, data: bytes, build: Callable | None = None):
    """The JSON value of ``path``'s bytes ``data``, through ``build`` if any."""
    with reading(path):
        value = decode(data.decode("utf-8"))
        return value if build is None else build(value)


def read_jsonl(path, data: bytes, build: Callable | None = None) -> list:
    """The records of ``data``, the bytes of JSONL file ``path``, decoded and
    built a line at a time; a line ends where it does in text mode."""
    with reading(path):
        lines = (decode(line.decode("utf-8")) for line in data.splitlines())
        return list(lines if build is None else map(build, lines))


class LazyJsonl(Sequence):
    """``read_jsonl(path, data)`` as a sequence, decoded when its first
    record is read, so a record that does not decode raises ArtifactError
    naming ``path`` then."""

    def __init__(self, path, data: bytes):
        self.path, self.data = path, data

    @cached_property
    def records(self) -> list:
        records = read_jsonl(self.path, self.data)
        self.data = None
        return records

    def __getitem__(self, index):
        return self.records[index]

    def __len__(self) -> int:
        return len(self.records)


def _exact(expected: frozenset, obj) -> dict:
    """``obj`` if it is a JSON object whose keys are exactly ``expected``, so
    no default fills a missing one."""
    if type(obj) is not dict or obj.keys() != expected:
        found = obj.keys() if isinstance(obj, dict) else frozenset()
        raise ValueError(f"fields missing {sorted(expected - found)}, "
                         f"unknown {sorted(found - expected)}")
    return obj


def record(cls, types: dict[str, str] | None = None
           ) -> Callable[[object], object]:
    """A build step that makes dataclass ``cls`` from a JSON object holding
    exactly its fields, each field named in ``types`` of one of the
    space-separated JSON types it gives there: string, number (a boolean is
    none) or null."""
    expected = frozenset(f.name for f in fields(cls))
    checks = [(name, kinds, tuple(t for kind in kinds.split()
                                  for t in _JSON_TYPES[kind]))
              for name, kinds in (types or {}).items()]

    def build(obj):
        _exact(expected, obj)
        for name, kinds, allowed in checks:
            if type(obj[name]) not in allowed:
                raise ValueError(f"{name} {reprlib.repr(obj[name])} is not "
                                 f"a JSON {' or '.join(kinds.split())}")
        return cls(**obj)
    return build


def read_blob(path, data: bytes, dtype, shape) -> np.ndarray:
    """A read-only array of ``shape`` over ``data``, the raw ``dtype`` values
    of ``path``; a blob of another size raises ArtifactError."""
    with reading(path):
        return np.frombuffer(data, dtype=dtype).reshape(shape)


def write_json(path, obj, indent: int | None = None) -> None:
    text = (encode(obj) if indent is None
            else json.dumps(obj, sort_keys=True, indent=indent))
    parent_made(path).write_text(text + "\n", encoding="utf-8")


def write_jsonl(path, records: Iterable[dict]) -> None:
    with open(parent_made(path), "w", encoding="utf-8") as fh:
        fh.writelines(encode(record) + "\n" for record in records)


def write_blob(path, array, dtype) -> None:
    parent_made(path).write_bytes(np.asarray(array).astype(dtype).tobytes())


def seal(paths: dict[str, Path]) -> None:
    """Record the sha256 of every file of ``paths`` but ``paths["seal"]`` in
    that file, keyed by its entry, so a renamed or copied set keeps its seal.
    A writer calls it last."""
    write_json(paths["seal"], {
        key: hashlib.sha256(Path(path).read_bytes()).hexdigest()
        for key, path in paths.items() if key != "seal"})


def check_seal(paths: dict[str, Path]) -> dict[str, bytes]:
    """Raise ArtifactError naming the seal if it is missing (as in a set of
    an earlier version) or unreadable, else the first file of ``paths`` that
    is missing or differs from what ``seal`` recorded. A loader calls it
    first and decodes what it returns: the bytes it checked of each file and
    the seal, keyed as in ``paths``."""
    files = {key: path for key, path in paths.items() if key != "seal"}
    with reading(paths["seal"]):
        checked = {"seal": Path(paths["seal"]).read_bytes()}
        digests = _exact(frozenset(files), decode(checked["seal"].decode()))
    for key, path in files.items():
        with reading(path):
            checked[key] = Path(path).read_bytes()
            if hashlib.sha256(checked[key]).hexdigest() != digests[key]:
                raise ValueError(f"differs from its seal {paths['seal']}")
    return checked
