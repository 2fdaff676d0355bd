"""Audit-event ingestion: JSONL parsing, provenance-graph construction, identities.

Events arrive as one JSON object per line (see README for the schema), and
parsing appends each accepted line's fields to one list per field
(``EventColumns``), which ``build_graph`` reads as they are, so no object is
made per event. Repeated
events with the same (source, destination, operation) inside a temporal window
are collapsed into a single weighted edge so that high-frequency system noise
does not explode the graph. A graph is its columns: ``build_graph`` and
``union_graph`` make them and ``load_graph`` hands saved ones back to the one
checked ``ProvenanceGraph`` constructor, and readers take a node's incident
edges as rows of them through ``incidence``, so no edge object is made.
"""

from __future__ import annotations

import logging
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .artifacts import (check_seal, columns, decode, keys, read_blob,
                        read_json, reading, seal, write_blob, write_json)
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
class EventColumns:
    """Parsed audit events as one list per field: event i is entry i of
    every list, and ``len`` is the event count. The events of one
    ``parse_events`` call may share their uuid, operation and kind strings
    and their attribute maps, so no entry may be mutated."""
    event_id: list[str] = field(default_factory=list)
    subject_uuid: list[str] = field(default_factory=list)
    object_uuid: list[str] = field(default_factory=list)
    operation: list[str] = field(default_factory=list)
    timestamp: list[int] = field(default_factory=list)  # ns since epoch
    subject_attrs: list[dict] = field(default_factory=list)
    object_attrs: list[dict] = field(default_factory=list)
    object_kind: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.event_id)


@dataclass
class Entity:
    uuid: str
    kind: str
    attrs: dict
    identity: str


# The columns of ``ProvenanceGraph.edge_columns`` and ``<name>.edges.bin``.
EDGE_COLUMNS = ("src_row", "dst_row", "operation", "first_ts", "last_ts",
                "weight")


class ProvenanceGraph:
    """A graph in its stored form: ``nodes`` in uuid order, the sorted
    distinct ``operations`` of its edges, and ``edge_columns``, a read-only
    int64 (edge count, ``EDGE_COLUMNS``) matrix. Row i holds edge i's endpoint
    node rows, its index into ``operations``, its timestamps and its weight,
    and rows are in canonical order (first_ts, src row, dst row, operation),
    which orders (first_ts, src, dst, operation) by name too. Construction
    checks this form, else raises ValueError. A graph is not changed once
    built, so its ``incidence`` view is built on first use."""

    def __init__(self, name: str, nodes: dict[str, Entity],
                 operations: list[str], edge_columns: np.ndarray):
        if list(nodes) != sorted(nodes):
            raise ValueError("node uuids are not in ascending order")
        if operations != sorted(set(operations)):
            raise ValueError("operations are not sorted and distinct")
        columns = np.asarray(edge_columns, dtype=np.int64)
        for cells, end, what in ((columns[:, :2], len(nodes), "endpoint row"),
                                 (columns[:, 2], len(operations),
                                  "operation index")):
            bad = cells[(cells < 0) | (cells >= end)]
            if bad.size:
                raise ValueError(f"{what} {bad[0]} is outside [0, {end})")
        if np.unique(columns[:, 2]).size != len(operations):
            raise ValueError("an operation is used by no edge")
        # A stable sort by (first_ts, src, dst, operation) keeps every row.
        if (np.lexsort(columns[:, [2, 1, 0, 3]].T)
                != np.arange(len(columns))).any():
            raise ValueError("edge rows are out of canonical order")
        columns.flags.writeable = False
        self.name, self.nodes, self.operations = name, nodes, operations
        self.edge_columns = columns

    def __eq__(self, other):
        return (isinstance(other, ProvenanceGraph)
                and (self.name, self.nodes, self.operations)
                == (other.name, other.nodes, other.operations)
                and np.array_equal(self.edge_columns, other.edge_columns))

    @property
    def edges(self) -> np.ndarray:
        """``edge_columns``, under the name the benchmark's build hook reads."""
        return self.edge_columns

    @cached_property
    def incidence(self) -> Incidence:
        """Each node's incident edge rows, built on first use."""
        src, dst = self.edge_columns[:, :2].T
        at = np.r_[src, dst[dst != src]]  # the node row of each incidence
        edge = np.r_[np.arange(len(src)), np.flatnonzero(dst != src)]
        edge_rows = edge[np.lexsort((edge, at))]
        offsets = np.r_[0, np.bincount(at, minlength=len(self.nodes)).cumsum()]
        edge_rows.flags.writeable = offsets.flags.writeable = False
        return Incidence(dict(zip(self.nodes, range(len(self.nodes)))),
                         tuple(self.nodes.values()), offsets, edge_rows,
                         self.edge_columns)


class Incidence(NamedTuple):
    """Read-only: node row r's incident edges are the ``edge_columns`` rows
    ``edge_rows[offsets[r]:offsets[r + 1]]``, ascending, a self-loop once.
    ``row_of`` maps a uuid to its node row, ``nodes`` a row to its entity."""
    row_of: dict[str, int]
    nodes: tuple[Entity, ...]
    offsets: np.ndarray
    edge_rows: np.ndarray
    edge_columns: np.ndarray

    def of(self, uuid: str) -> np.ndarray:
        """The ``edge_columns`` rows of node ``uuid``'s incident edges."""
        row = self.row_of[uuid]
        return self.edge_columns.take(
            self.edge_rows[self.offsets[row]:self.offsets[row + 1]], axis=0)


@dataclass
class ParseResult:
    events: EventColumns
    skipped: int


def identity_key(kind: str, attrs: dict) -> str:
    """The text an entity of ``kind`` is identified by: a subject's process
    name, a file's name (basename of the path) or a network flow's remote
    service port; "" when its key attribute is missing or names nothing."""
    key = attrs.get(KEY_ATTRIBUTE[kind][0])
    if kind == "file" and key:
        key = key.rstrip("/").rpartition("/")[2]
    return "" if key is None else str(key)


def derive_identity(kind: str, attrs: dict) -> str:
    """Map an entity to its fine-grained identity label, "<prefix>::<key>"
    of its ``identity_key``. An empty key yields the reserved
    "<prefix>::unknown" label instead of failing. Parsing has already made a
    line malformed whose key attribute has another type than
    ``KEY_ATTRIBUTE`` names.
    """
    prefix = IDENTITY_PREFIX.get(kind)
    if prefix is None:
        raise ValueError(f"unknown entity kind {kind!r}")
    return f"{prefix}::{identity_key(kind, attrs) or 'unknown'}"


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
    """The events of ``lines`` as columns, a line's event appended once every
    field checks out. An attribute map is a JSON object, or ``{}`` when it is
    missing or null, whose key attribute (``KEY_ATTRIBUTE`` of its role's
    kind) is missing, null or of the type that table gives. Within the call,
    events share one string per distinct uuid, operation and kind, the first
    equal one seen, and per role and uuid a map whose values are all strings
    or integers: one equal to the map ``held`` keeps for that role and uuid
    is replaced by it, else ``held`` keeps it. So no entry may be mutated."""
    events = EventColumns()
    share = {}.setdefault
    subject_maps: dict[str, dict] = {}
    object_maps: dict[str, dict] = {}
    skipped = total = 0
    for line in lines:
        line = line.strip()
        if not line:
            continue
        total += 1
        try:
            record = decode(line)
            subject_uuid = record["subject_uuid"]
            object_uuid = record["object_uuid"]
            if (type(subject_uuid) is not str or type(object_uuid) is not str
                    or not subject_uuid or not object_uuid):
                raise ValueError("subject_uuid and object_uuid must be "
                                 "non-empty strings")
            timestamp = record["timestamp"]
            if (type(timestamp) is not int
                    or not 0 <= timestamp < TIMESTAMP_END):
                raise ValueError("timestamp must be a non-negative integer "
                                 "below 2**63")
            object_kind = record["object_kind"]
            if object_kind not in ENTITY_KINDS:
                raise ValueError(f"unknown object_kind {object_kind!r}")
            operation = str(record["operation"])
            if operation not in ops:
                raise ValueError(f"operation {operation!r} not in vocabulary")
            event_id = str(record["event_id"])
            subject_uuid = share(subject_uuid, subject_uuid)
            object_uuid = share(object_uuid, object_uuid)
            maps = []
            for name, kind, held, uuid in (
                    ("subject_attrs", "subject", subject_maps, subject_uuid),
                    ("object_attrs", object_kind, object_maps, object_uuid)):
                attrs = record.get(name)
                if attrs is None:
                    attrs = {}
                elif type(attrs) is not dict:
                    raise ValueError(f"{name} must be an object")
                key, required = KEY_ATTRIBUTE[kind]
                value = attrs.get(key)
                if value is not None and type(value) is not required:
                    raise ValueError(f"a {kind}'s {key} must be of type "
                                     f"{required.__name__}")
                # Equal strings, or equal integers, have one JSON text, while
                # 1 == 1.0 == True, 0.0 == -0.0 and [1] == [1.0] do not, so
                # sharing never changes a value's type or sign.
                for item in attrs.values():
                    if type(item) is not str and type(item) is not int:
                        break
                else:
                    last = held.get(uuid)
                    if last == attrs:
                        attrs = last
                    else:
                        held[uuid] = attrs
                maps.append(attrs)
        except (ValueError, KeyError, TypeError) as exc:
            skipped += 1
            log.debug("skipping malformed line in %s: %s", origin, exc)
            continue
        events.event_id.append(event_id)
        events.subject_uuid.append(subject_uuid)
        events.object_uuid.append(object_uuid)
        events.operation.append(share(operation, operation))
        events.timestamp.append(timestamp)
        events.subject_attrs.append(maps[0])
        events.object_attrs.append(maps[1])
        events.object_kind.append(share(object_kind, object_kind))
    if total > 0 and skipped * 2 > total:
        raise FormatError(
            f"{skipped}/{total} lines of {origin} are malformed; "
            "input does not look like the expected event format")
    return ParseResult(events=events, skipped=skipped)


def _ranked(names: list[str]) -> tuple[list[str], np.ndarray]:
    """The sorted distinct ``names``, and each name's position in that list."""
    distinct = sorted(set(names))
    rank = dict(zip(distinct, range(len(distinct))))
    return distinct, np.fromiter(map(rank.__getitem__, names), np.intp,
                                 len(names))


def build_graph(events: EventColumns, window_ns: int,
                name: str = "graph") -> ProvenanceGraph:
    """Aggregate parsed events into a provenance graph.

    Events are taken in (timestamp, subject, object, operation, event_id)
    order. Those of one (src, dst, operation) key merge into one weighted edge
    while they stay within ``window_ns`` of the edge's first timestamp, and a
    node takes its kind and attributes from the first event naming it, so the
    result is independent of input order. Only a key whose events span more
    than ``window_ns`` is walked, one edge at a time; the rest is array
    operations on the integer codes of uuids and operations.
    """
    uuids, codes = _ranked(events.subject_uuid + events.object_uuid)
    src, dst = codes[:len(events)], codes[len(events):]
    operations, op = _ranked(events.operation)
    ts = np.array(events.timestamp, dtype=np.int64)

    # One integer per (src, dst, operation) key, in the order of the codes.
    key = np.ravel_multi_index((src, dst, op), (len(uuids), len(uuids),
                                                len(operations)))
    # Events by key and time, and in event order: time, then key. Both sorts
    # are stable and start from event id order, so event ids break ties.
    ids = events.event_id
    by_id = np.array(sorted(range(len(ids)), key=ids.__getitem__), np.intp)
    by_key = by_id[np.lexsort((ts[by_id], key[by_id]))]
    order = by_key[np.argsort(ts[by_key], kind="stable")]
    # A uuid's first naming: the subject (even) or the object (odd) of an
    # event, the subject first.
    named = np.unique(np.stack([src[order], dst[order]], axis=1),
                      return_index=True)[1]
    nodes = {}
    for uuid, i, as_object in zip(uuids, order[named // 2].tolist(),
                                  (named % 2).tolist()):
        kind, attrs = ((events.object_kind[i], events.object_attrs[i])
                       if as_object else ("subject", events.subject_attrs[i]))
        nodes[uuid] = Entity(uuid, kind, dict(attrs),
                             derive_identity(kind, attrs))
    if unknown := sum(not identity_key(node.kind, node.attrs)
                      for node in nodes.values()):
        log.warning("%d entities have no key attribute; labelled unknown",
                    unknown)

    # Every key starts an edge, and an edge ends where the next one starts.
    src, dst, op, ts = src[by_key], dst[by_key], op[by_key], ts[by_key]
    bounds = np.flatnonzero(np.diff(key[by_key], prepend=-1, append=-1))
    spread = np.flatnonzero(ts[bounds[1:] - 1] - ts[bounds[:-1]] > window_ns)
    heads, stamps = bounds.tolist(), ts.tolist()  # with len(ts) as a sentinel
    for head, stop in zip(bounds[spread].tolist(),
                          bounds[spread + 1].tolist()):
        while (head := bisect_right(stamps, stamps[head] + window_ns, head,
                                    stop)) < stop:
            heads.append(head)
    heads = np.sort(np.array(heads, dtype=np.intp))
    heads, ends = heads[:-1], heads[1:]
    columns = np.stack([src[heads], dst[heads], op[heads], ts[heads],
                        ts[ends - 1], ends - heads], axis=1)
    # Canonical order: by first_ts, and stably so, then by key.
    columns = columns[np.argsort(columns[:, 3], kind="stable")]
    return ProvenanceGraph(name, nodes, operations, columns)


def union_graph(graphs: list[ProvenanceGraph]) -> ProvenanceGraph:
    """Disjoint union used to train one encoder over one benign window or
    several. Each node is keyed ``<position in graphs>:<uuid>``, one window
    included, so a uuid seen in two windows stays two nodes with their own
    edges, as in the knowledge base. Each graph's node rows and operation
    indices move to their places in the sorted union, and one stable sort
    restores canonical row order."""
    nodes, ops, parts = {}, [], []
    for position, graph in enumerate(graphs):
        # rows and indices into the concatenated nodes and operations
        shift = [len(nodes), len(nodes), len(ops), 0, 0, 0]
        parts.append(graph.edge_columns + shift)
        nodes.update((f"{position}:{uuid}", node)
                     for uuid, node in graph.nodes.items())
        ops += graph.operations
    operations, op = _ranked(ops)
    columns = np.concatenate(parts)
    columns[:, :2] = _ranked(list(nodes))[1][columns[:, :2]]
    columns[:, 2] = op[columns[:, 2]]
    return ProvenanceGraph(
        "+".join(graph.name for graph in graphs),
        {name: replace(nodes[name], uuid=name) for name in sorted(nodes)},
        operations, columns[np.lexsort(columns[:, [2, 1, 0, 3]].T)])


# --- serialization ---------------------------------------------------------

def graph_paths(directory: str | Path, name: str) -> dict[str, Path]:
    base = Path(directory)
    return {
        "header": base / f"{name}.header.json",
        "nodes": base / f"{name}.nodes.json",
        "edges": base / f"{name}.edges.bin",
        "seal": base / f"{name}.seal.json",
    }


def save_graph(graph: ProvenanceGraph, directory: str | Path) -> None:
    """Write the stored form: the header with the graph's ``operations``, the
    nodes in node order as one object of columns, ``edge_columns`` as
    ``<i8``, and the seal."""
    paths = graph_paths(directory, graph.name)
    nodes = graph.nodes.values()
    seal(paths, {
        "header": write_json(paths["header"], {
            "name": graph.name,
            "edge_count": len(graph.edge_columns),
            "operations": graph.operations,
        }, indent=2),
        "nodes": write_json(paths["nodes"], {
            "uuid": list(graph.nodes),
            "kind": [node.kind for node in nodes],
            "attrs": [node.attrs for node in nodes],
            "identity": [node.identity for node in nodes],
        }),
        "edges": write_blob(paths["edges"], graph.edge_columns, "<i8")})


def load_graph(directory: str | Path, name: str) -> ProvenanceGraph:
    """The saved graph, built from its files as they are. A file that differs
    from its seal, a header with other keys or types than ``save_graph``
    writes or of another graph than ``name`` (as in a renamed set), a nodes
    file with a uuid or identity that is not a string, a kind outside
    ``ENTITY_KINDS`` or a repeated uuid, or a graph the constructor rejects,
    raises ArtifactError naming the file."""
    paths = graph_paths(directory, name)
    checked = check_seal(paths)
    header = read_json(paths["header"], checked["header"],
                       keys(name="string", edge_count="integer",
                            operations="string[]"))
    with reading(paths["header"]):
        if header["name"] != name:
            raise ValueError(f"holds graph {header['name']!r}, not {name!r}")
    uuids, kinds, attrs, identities = read_json(
        paths["nodes"], checked["nodes"],
        columns("uuid", "kind", "attrs", "identity"))
    with reading(paths["nodes"]):
        if set(map(type, uuids + identities)) - {str}:
            raise ValueError("holds a uuid or identity that is not a string")
        # a kind may be a list, so membership is not tested through a set
        if not all(kind in ENTITY_KINDS for kind in kinds):
            raise ValueError(f"holds a kind other than {ENTITY_KINDS}")
        nodes = dict(zip(uuids, map(Entity, uuids, kinds, attrs, identities)))
        if len(nodes) < len(uuids):
            raise ValueError("repeats a uuid")
    edge_columns = read_blob(paths["edges"], checked["edges"], "<i8",
                             (header["edge_count"], len(EDGE_COLUMNS)))
    with reading(paths["edges"]):
        return ProvenanceGraph(name, nodes, header["operations"], edge_columns)
