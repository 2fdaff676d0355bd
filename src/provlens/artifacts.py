"""The one module that opens pipeline artifacts.

Headers are JSON, record streams are JSONL (one object per line) and matrices
are raw little-endian blobs. Writers create the parent directory and write
sorted keys plus a trailing newline, so equal objects give equal bytes.
``decode`` and ``encode`` are the one JSON decoder and encoder: ``decode``
reads every JSON document, agent replies and config included, and each
record is encoded to the bytes of ``json.dumps(record, sort_keys=True)``,
without the per-call set-up of ``json.loads`` and ``json.dumps``.
Each writer returns the sha256 hex digest of the bytes it wrote. Each writer
of an artifact set names its files in one ``*_paths`` dict and calls
``seal`` last with those digests, so no file is read back to be sealed; its
loader calls ``check_seal`` first and decodes the bytes that check returned,
so it decodes exactly the bytes the seal covers, each file read once; of
what only a hand edit could break it checks just a header's keys and their
JSON types, an array's element type included (``keys``). A record file
that its loader decodes whole is one JSON object of columns (``columns``);
one decoded a record at a time is JSONL.
Readers build records inside one error guard and raise ArtifactError
naming the file when it is missing, does not decode, differs from its seal or
is a blob that does not fit the shape its header gives, or when a header or
a record of an unsealed input lacks a key or holds one of another JSON type
or an unknown one (as a header of an earlier version may); the CLI
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
# The Python types of each JSON type a header key or a ``record`` field may
# be declared as; a boolean is none of them.
_JSON_TYPES = {"string": (str,), "integer": (int,), "number": (int, float),
               "array": (list,), "null": (type(None),)}


def _is(kind: str) -> Callable[[object], bool]:
    """Whether a value is of JSON type ``kind``, or for ``<type>[]`` an
    array of values of that type."""
    if kind.endswith("[]"):
        item = _is(kind[:-2])
        return lambda value: type(value) is list and all(map(item, value))
    allowed = _JSON_TYPES[kind]
    return lambda value: type(value) in allowed


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


def _typed(expected: frozenset, types: dict) -> Callable[[object], dict]:
    """A check that passes on a JSON object whose keys are exactly
    ``expected``, each key named in ``types`` of one of the space-separated
    JSON types it gives there: string, integer, number (a boolean is none),
    array, null, or ``<type>[]``, an array of values of that type."""
    checks = [(name, kinds, [_is(kind) for kind in kinds.split()])
              for name, kinds in types.items()]

    def check(obj):
        _exact(expected, obj)
        for name, kinds, tests in checks:
            if not any(test(obj[name]) for test in tests):
                raise ValueError(f"{name} {reprlib.repr(obj[name])} is not "
                                 f"a JSON {' or '.join(kinds.split())}")
        return obj
    return check


def keys(**types: str) -> Callable[[object], dict]:
    """A build step that takes a header holding exactly the keys of
    ``types``, each of the JSON types it gives there, as ``_typed`` takes."""
    return _typed(frozenset(types), types)


def record(cls, types: dict[str, str] | None = None
           ) -> Callable[[object], object]:
    """A build step that makes dataclass ``cls`` from a JSON object of
    exactly its fields, those named in ``types`` checked as ``_typed`` does."""
    check = _typed(frozenset(f.name for f in fields(cls)), types or {})
    return lambda obj: cls(**check(obj))


def columns(*names: str) -> Callable[[object], list[list]]:
    """A build step that takes a JSON object holding exactly the columns
    ``names``, each a list and all of one length, and returns them in that
    order."""
    expected = frozenset(names)

    def build(obj):
        found = list(map(_exact(expected, obj).__getitem__, names))
        for name, column in zip(names, found):
            if type(column) is not list:
                raise ValueError(f"column {name} is not a list")
        lengths = dict(zip(names, map(len, found)))
        if len(set(lengths.values())) > 1:
            raise ValueError(f"columns of unequal length {lengths}")
        return found
    return build


def read_blob(path, data: bytes, dtype, shape) -> np.ndarray:
    """A read-only array of ``shape`` over ``data``, the raw ``dtype`` values
    of ``path``; a blob of another size raises ArtifactError."""
    with reading(path):
        return np.frombuffer(data, dtype=dtype).reshape(shape)


def _write(path, data: bytes) -> str:
    """Write ``data`` to ``path``; the sha256 hex digest of ``data``."""
    parent_made(path).write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def write_json(path, obj, indent: int | None = None) -> str:
    text = (encode(obj) if indent is None
            else json.dumps(obj, sort_keys=True, indent=indent))
    return _write(path, (text + "\n").encode("utf-8"))


def write_jsonl(path, records: Iterable[dict]) -> str:
    return _write(path, "".join(encode(record) + "\n"
                                for record in records).encode("utf-8"))


def write_blob(path, array, dtype) -> str:
    return _write(path, np.asarray(array).astype(dtype).tobytes())


def seal(paths: dict[str, Path], digests: dict[str, str]) -> None:
    """Record ``digests``, the digest each writer returned for a file of
    ``paths`` but ``paths["seal"]``, in that file, keyed by its entry, so a
    renamed or copied set keeps its seal. A writer calls it last."""
    write_json(paths["seal"], _exact(frozenset(paths) - {"seal"}, digests))


def _sealed_bytes(path: Path) -> bytes:
    """The bytes of ``path``. Where a JSON file of columns is missing and
    the JSONL file an earlier version wrote in its place is there, raise
    ArtifactError naming that file."""
    try:
        return path.read_bytes()
    except FileNotFoundError:
        earlier = path.with_suffix(".jsonl")
        if path.suffix == ".json" and earlier.is_file():
            raise ArtifactError(
                f"unreadable artifact {earlier}: JSONL of an earlier "
                f"version, where {path.name} is expected; write the set "
                f"again", path=str(earlier)) from None
        raise


def check_seal(paths: dict[str, Path]) -> dict[str, bytes]:
    """Raise ArtifactError naming the seal if it is missing (as in a set of
    an earlier version) or unreadable, else the first file of ``paths`` that
    is missing (or, of an earlier version, JSONL where columns are expected)
    or differs from what ``seal`` recorded. A loader calls it
    first and decodes what it returns: the bytes it checked of each file and
    the seal, keyed as in ``paths``."""
    files = {key: path for key, path in paths.items() if key != "seal"}
    with reading(paths["seal"]):
        checked = {"seal": Path(paths["seal"]).read_bytes()}
        digests = _exact(frozenset(files), decode(checked["seal"].decode()))
    for key, path in files.items():
        with reading(path):
            checked[key] = _sealed_bytes(Path(path))
            if hashlib.sha256(checked[key]).hexdigest() != digests[key]:
                raise ValueError(f"differs from its seal {paths['seal']}")
    return checked
