"""Audit-event ingestion: JSONL parsing, provenance-graph construction, identities.

Events arrive as one JSON object per line (see README for the schema). Repeated
events with the same (source, destination, operation) inside a temporal window
are collapsed into a single weighted edge so that high-frequency system noise
does not explode the graph.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from pathlib import Path
from typing import Iterable

import numpy as np

from .artifacts import (decode, keys, read_blob, read_json, read_jsonl,
                        reading, record, write_blob, write_json, write_jsonl)
from .config import DEFAULT_OP_VOCAB
from .errors import FormatError

log = logging.getLogger(__name__)

ENTITY_KINDS = ("subject", "file", "netflow")

# Timestamps are below this bound, so a saved graph holds them as int64.
TIMESTAMP_END = 2 ** 63

IDENTITY_PREFIX = {"subject": "subject", "file": "file", "netflow": "net"}

# The attribute an entity's identity is keyed by, and its JSON type when it
# is present and not null (a bool is not an integer).
KEY_ATTRIBUTE = {"subject": ("name", str), "file": ("path", str),
                 "netflow": ("port", int)}


@dataclass(slots=True)
class RawEvent:
    event_id: str
    subject_uuid: str
    object_uuid: str
    operation: str
    timestamp: int  # ns since epoch
    subject_attrs: dict = field(default_factory=dict)
    object_attrs: dict = field(default_factory=dict)
    object_kind: str = "file"


@dataclass
class Entity:
    uuid: str
    kind: str
    attrs: dict
    identity: str


@dataclass
class ProvEdge:
    src: str
    dst: str
    operation: str
    first_ts: int
    last_ts: int
    weight: int = 1


# A graph's edge order: first timestamp, source, destination, operation.
edge_order = attrgetter("first_ts", "src", "dst", "operation")

# The columns of ``ProvenanceGraph.edge_columns`` and ``<name>.edges.bin``.
EDGE_COLUMNS = ("src_row", "dst_row", "operation", "first_ts", "last_ts",
                "weight")


@dataclass
class ProvenanceGraph:
    """Nodes in uuid order and edges in ``edge_order`` (stable), however it is
    built; every edge joins two of its nodes, else construction raises
    ValueError. It is not changed once built, so what it derives is cached,
    such as ``edge_columns``, the one numeric form of its edges."""
    name: str
    nodes: dict[str, Entity]
    edges: list[ProvEdge]

    def __post_init__(self):
        self.nodes = dict(sorted(self.nodes.items()))
        self.edges = sorted(self.edges, key=edge_order)
        dangling = {e.src for e in self.edges}.union(
            e.dst for e in self.edges).difference(self.nodes)
        if dangling:
            raise ValueError(f"edge endpoint {min(dangling)!r} is not a node")

    @cached_property
    def incidence(self) -> dict[str, tuple[ProvEdge, ...]]:
        """uuid -> the edges touching it, in edge order, for every node."""
        index: dict[str, list[ProvEdge]] = {uuid: [] for uuid in self.nodes}
        for edge in self.edges:
            index[edge.src].append(edge)
            if edge.dst != edge.src:
                index[edge.dst].append(edge)
        return {uuid: tuple(edges) for uuid, edges in index.items()}

    @cached_property
    def operations(self) -> list[str]:
        """The sorted distinct operations of the edges."""
        return sorted({edge.operation for edge in self.edges})

    @cached_property
    def edge_columns(self) -> np.ndarray:
        """Read-only int64 (edge count, ``EDGE_COLUMNS``) matrix, row i for
        edge i: its endpoints' node rows, its operation's index into
        ``operations``, its timestamps and its weight."""
        row = dict(zip(self.nodes, range(len(self.nodes))))
        op = dict(zip(self.operations, range(len(self.operations))))
        columns = np.array([(row[e.src], row[e.dst], op[e.operation],
                             e.first_ts, e.last_ts, e.weight) for e in self.edges],
                           dtype=np.int64).reshape(-1, len(EDGE_COLUMNS))
        columns.flags.writeable = False
        return columns


@dataclass
class ParseResult:
    events: list[RawEvent]
    skipped: int


def derive_identity(kind: str, attrs: dict) -> str:
    """Map an entity to its fine-grained identity label.

    Subjects are keyed by process name, files by file name (basename of the
    path) and network flows by the remote service port. A missing key attribute
    yields the reserved "<prefix>::unknown" label instead of failing. Parsing
    has already made a line malformed whose key attribute has another type
    than ``KEY_ATTRIBUTE`` names.
    """
    prefix = IDENTITY_PREFIX.get(kind)
    if prefix is None:
        raise ValueError(f"unknown entity kind {kind!r}")
    key = attrs.get(KEY_ATTRIBUTE[kind][0])
    if kind == "file" and key:
        key = key.rstrip("/").rpartition("/")[2]
    key = "" if key is None else str(key)
    if not key:
        log.warning("entity of kind %s has no key attribute; labelling unknown", kind)
        key = "unknown"
    return f"{prefix}::{key}"


def _attribute_map(record: dict, name: str) -> dict:
    """The attribute map ``name`` of ``record``: a JSON object, or ``{}`` when
    it is missing or null."""
    attrs = record.get(name)
    if attrs is None:
        return {}
    if type(attrs) is not dict:
        raise ValueError(f"{name} must be an object")
    return attrs


def _event_from_record(record: dict) -> RawEvent:
    subject_uuid = record["subject_uuid"]
    object_uuid = record["object_uuid"]
    if (type(subject_uuid) is not str or type(object_uuid) is not str
            or not subject_uuid or not object_uuid):
        raise ValueError("subject_uuid and object_uuid must be non-empty "
                         "strings")
    timestamp = record["timestamp"]
    if type(timestamp) is not int or not 0 <= timestamp < TIMESTAMP_END:
        raise ValueError("timestamp must be a non-negative integer below "
                         "2**63")
    object_kind = record["object_kind"]
    if object_kind not in ENTITY_KINDS:
        raise ValueError(f"unknown object_kind {object_kind!r}")
    subject_attrs = _attribute_map(record, "subject_attrs")
    object_attrs = _attribute_map(record, "object_attrs")
    name = subject_attrs.get("name")
    if name is not None and type(name) is not str:
        raise ValueError("a subject's name must be a string")
    key, required = KEY_ATTRIBUTE[object_kind]
    value = object_attrs.get(key)
    if value is not None and type(value) is not required:
        raise ValueError(f"a {object_kind}'s {key} must be of type "
                         f"{required.__name__}")
    return RawEvent(str(record["event_id"]), subject_uuid, object_uuid,
                    str(record["operation"]), timestamp, subject_attrs,
                    object_attrs, object_kind)


def parse_events(source, op_vocab: Iterable[str] = DEFAULT_OP_VOCAB) -> ParseResult:
    """Parse a JSONL event stream, skipping (and counting) malformed lines.

    ``source`` may be a path or any iterable of lines. More than 50% malformed
    lines is treated as a wrong-format input and raises FormatError; an
    unreadable path raises ArtifactError.
    """
    ops = set(op_vocab)
    if isinstance(source, (str, Path)):
        with reading(source), open(source, encoding="utf-8") as fh:
            return _parse_lines(fh, ops, str(source))
    return _parse_lines(source, ops, "<stream>")


def _parse_lines(lines: Iterable[str], ops: set, origin: str) -> ParseResult:
    events: list[RawEvent] = []
    skipped = 0
    total = 0
    for line in lines:
        line = line.strip()
        if not line:
            continue
        total += 1
        try:
            event = _event_from_record(decode(line))
            if event.operation not in ops:
                raise ValueError(f"operation {event.operation!r} not in vocabulary")
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            skipped += 1
            log.debug("skipping malformed line in %s: %s", origin, exc)
            continue
        events.append(event)
    if total > 0 and skipped * 2 > total:
        raise FormatError(
            f"{skipped}/{total} lines of {origin} are malformed; "
            "input does not look like the expected event format")
    return ParseResult(events=events, skipped=skipped)


_sort_key = attrgetter("timestamp", "subject_uuid", "object_uuid", "operation",
                       "event_id")


def build_graph(events: Iterable[RawEvent], window_ns: int,
                name: str = "graph") -> ProvenanceGraph:
    """Aggregate raw events into a provenance graph.

    Events are sorted by timestamp; consecutive events with the same
    (src, dst, operation) merge into one weighted edge while they stay within
    ``window_ns`` of the aggregate's first timestamp, so the result is
    independent of input order.
    """
    if window_ns <= 0:
        raise ValueError("window_ns must be positive")
    ordered = sorted(events, key=_sort_key)

    nodes: dict[str, Entity] = {}
    open_aggregates: dict[tuple[str, str, str], ProvEdge] = {}
    edges: list[ProvEdge] = []
    for event in ordered:
        src, dst = event.subject_uuid, event.object_uuid
        operation, timestamp = event.operation, event.timestamp
        if src not in nodes:
            attrs = event.subject_attrs
            nodes[src] = Entity(src, "subject", dict(attrs),
                                derive_identity("subject", attrs))
        if dst not in nodes:
            kind, attrs = event.object_kind, event.object_attrs
            nodes[dst] = Entity(dst, kind, dict(attrs),
                                derive_identity(kind, attrs))
        key = (src, dst, operation)
        agg = open_aggregates.get(key)
        if agg is not None and timestamp - agg.first_ts <= window_ns:
            agg.weight += 1
            agg.last_ts = timestamp  # events come in timestamp order
        else:
            agg = ProvEdge(src, dst, operation, timestamp, timestamp)
            open_aggregates[key] = agg
            edges.append(agg)

    return ProvenanceGraph(name=name, nodes=nodes, edges=edges)


# --- serialization ---------------------------------------------------------

def graph_paths(directory: str | Path, name: str) -> dict[str, Path]:
    base = Path(directory)
    return {
        "header": base / f"{name}.header.json",
        "nodes": base / f"{name}.nodes.jsonl",
        "edges": base / f"{name}.edges.bin",
    }


def save_graph(graph: ProvenanceGraph, directory: str | Path) -> None:
    """Write the header, the nodes in node order as JSONL, and the graph's
    ``edge_columns`` as ``<i8``; its operation column indexes ``operations``."""
    paths = graph_paths(directory, graph.name)
    write_json(paths["header"], {
        "name": graph.name,
        "node_count": len(graph.nodes),
        "edge_count": len(graph.edges),
        "operations": graph.operations,
    }, indent=2)
    write_jsonl(paths["nodes"], map(vars, graph.nodes.values()))
    write_blob(paths["edges"], graph.edge_columns, "<i8")


_NODE_TYPES = {"uuid": str, "kind": str, "identity": str, "attrs": dict}
_header_keys = keys("edge_count name node_count operations",
                    "edge_count node_count")


def _graph_header(obj) -> dict:
    header = _header_keys(obj)
    operations = header["operations"]
    if (type(operations) is not list
            or any(type(op) is not str for op in operations)
            or len(set(operations)) != len(operations)):
        raise ValueError("operations is not a list of distinct strings")
    return header


def load_graph(directory: str | Path, name: str) -> ProvenanceGraph:
    """The saved graph; a record whose field has another JSON type than its
    writer wrote, a nodes file that repeats a uuid, a header of another
    graph than ``name`` or whose ``operations`` is not a list of distinct
    strings, or an edges matrix of another size than the header records or
    with an endpoint row or operation index out of range, raises
    ArtifactError naming the file."""
    paths = graph_paths(directory, name)
    header = read_json(paths["header"], _graph_header)
    with reading(paths["header"]):
        if header["name"] != name:
            raise ValueError(f"holds graph {header['name']!r}, not {name!r}")
    nodes = read_jsonl(paths["nodes"], header["node_count"],
                       record(Entity, _NODE_TYPES))
    by_uuid = {node.uuid: node for node in nodes}
    with reading(paths["nodes"]):
        if len(by_uuid) != len(nodes):
            raise ValueError("a node uuid is repeated")
    columns = read_blob(paths["edges"], "<i8",
                        (header["edge_count"], len(EDGE_COLUMNS)))
    operations = header["operations"]
    with reading(paths["edges"]):
        rows, ops = columns[:, :2], columns[:, 2]
        bad = rows[(rows < 0) | (rows >= len(nodes))]
        if bad.size:
            raise ValueError(f"endpoint row {bad[0]} is outside the node "
                             f"rows [0, {len(nodes)})")
        bad = ops[(ops < 0) | (ops >= len(operations))]
        if bad.size:
            raise ValueError(f"operation index {bad[0]} is outside "
                             f"[0, {len(operations)})")
    uuids = list(by_uuid)
    edges = [ProvEdge(uuids[src], uuids[dst], operations[op], first, last,
                      weight)
             for src, dst, op, first, last, weight in columns.tolist()]
    return ProvenanceGraph(name=name, nodes=by_uuid, edges=edges)
