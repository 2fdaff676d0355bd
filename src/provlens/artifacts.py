"""The one module that opens pipeline artifacts.

Headers are JSON, record streams are JSONL (one object per line) and matrices
are raw little-endian blobs. Writers create the parent directory and write
sorted keys plus a trailing newline, so equal objects give equal bytes.
Readers build records inside one error guard and raise ArtifactError naming
the file when it is missing, does not decode, holds the wrong number of values
or a record whose fields differ from those its writer wrote; the CLI reports
that as exit code 2.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import fields
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import ArtifactError


@contextmanager
def _reading(path):
    try:
        yield
    except FileNotFoundError as exc:
        raise ArtifactError(f"missing artifact {path}", path=str(path)) from exc
    except (OSError, ValueError, KeyError) as exc:  # decoding and fields
        raise ArtifactError(f"unreadable artifact {path}: {exc}",
                            path=str(path)) from exc


def _parent_made(path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def read_json(path, build: Callable | None = None):
    """The JSON value of ``path``, passed through ``build`` when given."""
    with _reading(path), open(path, encoding="utf-8") as fh:
        return json.load(fh) if build is None else build(json.load(fh))


def read_jsonl(path, build: Callable | None = None) -> Iterator:
    """The records of a JSONL file, decoded (and built) one line at a time."""
    with _reading(path), open(path, encoding="utf-8") as fh:
        for line in fh:
            yield json.loads(line) if build is None else build(json.loads(line))


def _exact(expected: frozenset, obj) -> dict:
    if type(obj) is not dict or obj.keys() != expected:
        found = obj.keys() if isinstance(obj, dict) else frozenset()
        raise ValueError(f"fields missing {sorted(expected - found)}, "
                         f"unknown {sorted(found - expected)}")
    return obj


def keys(names: str) -> Callable[[object], dict]:
    """A build step passing on a JSON object whose keys are exactly the
    space-separated ``names``, so no default fills a missing one."""
    return partial(_exact, frozenset(names.split()))


def record(cls) -> Callable[[object], object]:
    """A build step that makes dataclass ``cls`` from a JSON object holding
    exactly its fields."""
    expected = frozenset(f.name for f in fields(cls))
    return lambda obj: cls(**_exact(expected, obj))


def read_blob(path, dtype, shape) -> np.ndarray:
    """A writable array of ``shape`` read from raw ``dtype`` values."""
    with _reading(path):
        values = np.fromfile(path, dtype=np.uint8).view(dtype)
    if values.size != math.prod(shape):
        raise ArtifactError(f"artifact {path} holds {values.size} values, "
                            f"expected {math.prod(shape)}", path=str(path))
    return values.reshape(shape)


def write_json(path, obj, indent: int | None = None) -> None:
    _parent_made(path).write_text(
        json.dumps(obj, sort_keys=True, indent=indent) + "\n", encoding="utf-8")


def write_jsonl(path, records: Iterable[dict]) -> None:
    with open(_parent_made(path), "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def write_blob(path, array, dtype) -> None:
    _parent_made(path).write_bytes(np.asarray(array).astype(dtype).tobytes())
