"""Audit-event ingestion: JSONL parsing, provenance-graph construction, identities.

Events arrive as one JSON object per line (see README for the schema). Repeated
events with the same (source, destination, operation) inside a temporal window
are collapsed into a single weighted edge so that high-frequency system noise
does not explode the graph.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .artifacts import (keys, read_json, read_jsonl, record, write_json,
                        write_jsonl)
from .config import DEFAULT_OP_VOCAB
from .errors import ArtifactError, FormatError

log = logging.getLogger(__name__)

ENTITY_KINDS = ("subject", "file", "netflow")

IDENTITY_PREFIX = {"subject": "subject", "file": "file", "netflow": "net"}


@dataclass(frozen=True)
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


@dataclass
class ProvenanceGraph:
    name: str
    nodes: dict[str, Entity]
    edges: list[ProvEdge]
    window_start: int = 0
    window_end: int = 0


@dataclass
class ParseResult:
    events: list[RawEvent]
    skipped: int


def derive_identity(kind: str, attrs: dict) -> str:
    """Map an entity to its fine-grained identity label.

    Subjects are keyed by process name, files by file name (basename of the
    path) and network flows by the remote service port. A missing key attribute
    yields the reserved "<prefix>::unknown" label instead of failing.
    """
    prefix = IDENTITY_PREFIX.get(kind)
    if prefix is None:
        raise ValueError(f"unknown entity kind {kind!r}")
    if kind == "subject":
        key = attrs.get("name")
    elif kind == "file":
        path = attrs.get("path")
        key = path.rstrip("/").rpartition("/")[2] if path else None
    else:
        port = attrs.get("port")
        key = str(port) if port is not None else None
    if not key:
        log.warning("entity of kind %s has no key attribute; labelling unknown", kind)
        key = "unknown"
    return f"{prefix}::{key}"


def _event_from_record(record: dict) -> RawEvent:
    subject_uuid = record["subject_uuid"]
    if not isinstance(subject_uuid, str) or not subject_uuid:
        raise ValueError("subject_uuid must be a non-empty string")
    timestamp = record["timestamp"]
    if not isinstance(timestamp, int) or isinstance(timestamp, bool) or timestamp < 0:
        raise ValueError("timestamp must be a non-negative integer")
    object_kind = record["object_kind"]
    if object_kind not in ENTITY_KINDS:
        raise ValueError(f"unknown object_kind {object_kind!r}")
    subject_attrs = record.get("subject_attrs") or {}
    object_attrs = record.get("object_attrs") or {}
    if not isinstance(subject_attrs, dict) or not isinstance(object_attrs, dict):
        raise ValueError("attribute maps must be objects")
    return RawEvent(
        event_id=str(record["event_id"]),
        subject_uuid=subject_uuid,
        object_uuid=str(record["object_uuid"]),
        operation=str(record["operation"]),
        timestamp=timestamp,
        subject_attrs=subject_attrs,
        object_attrs=object_attrs,
        object_kind=object_kind,
    )


def parse_events(source, op_vocab: Iterable[str] = DEFAULT_OP_VOCAB) -> ParseResult:
    """Parse a JSONL event stream, skipping (and counting) malformed lines.

    ``source`` may be a path or any iterable of lines. More than 50% malformed
    lines is treated as a wrong-format input and raises FormatError; an
    unreadable path raises ArtifactError.
    """
    ops = set(op_vocab)
    if isinstance(source, (str, Path)):
        try:
            with open(source, encoding="utf-8") as fh:
                return _parse_lines(fh, ops, str(source))
        except OSError as exc:
            raise ArtifactError(f"cannot read event input {source}: {exc}",
                                path=str(source)) from exc
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
            record = json.loads(line)
            event = _event_from_record(record)
            if event.operation not in ops:
                raise ValueError(f"operation {event.operation!r} not in vocabulary")
        except (ValueError, KeyError, TypeError) as exc:
            skipped += 1
            log.debug("skipping malformed line in %s: %s", origin, exc)
            continue
        events.append(event)
    if total > 0 and skipped * 2 > total:
        raise FormatError(
            f"{skipped}/{total} lines of {origin} are malformed; "
            "input does not look like the expected event format")
    return ParseResult(events=events, skipped=skipped)


def _sort_key(event: RawEvent):
    return (event.timestamp, event.subject_uuid, event.object_uuid,
            event.operation, event.event_id)


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

    def ensure_node(uuid: str, kind: str, attrs: dict) -> None:
        if uuid in nodes:
            return
        nodes[uuid] = Entity(uuid=uuid, kind=kind, attrs=dict(attrs),
                             identity=derive_identity(kind, attrs))

    for event in ordered:
        ensure_node(event.subject_uuid, "subject", event.subject_attrs)
        ensure_node(event.object_uuid, event.object_kind, event.object_attrs)
        key = (event.subject_uuid, event.object_uuid, event.operation)
        agg = open_aggregates.get(key)
        if agg is not None and event.timestamp - agg.first_ts <= window_ns:
            agg.weight += 1
            agg.last_ts = max(agg.last_ts, event.timestamp)
        else:
            agg = ProvEdge(src=event.subject_uuid, dst=event.object_uuid,
                           operation=event.operation, first_ts=event.timestamp,
                           last_ts=event.timestamp)
            open_aggregates[key] = agg
            edges.append(agg)

    edges.sort(key=lambda e: (e.first_ts, e.src, e.dst, e.operation))
    if ordered:
        window_start = ordered[0].timestamp
        window_end = max(e.last_ts for e in edges)
    else:
        window_start = window_end = 0
    return ProvenanceGraph(name=name, nodes=nodes, edges=edges,
                           window_start=window_start, window_end=window_end)


def _incident_index(graph: ProvenanceGraph) -> dict[str, list[ProvEdge]]:
    # Built lazily; graphs are immutable once constructed, so the index is
    # stored on the instance.
    cache = getattr(graph, "_incident_cache", None)
    if cache is None:
        cache = {}
        for edge in graph.edges:
            cache.setdefault(edge.src, []).append(edge)
            if edge.dst != edge.src:
                cache.setdefault(edge.dst, []).append(edge)
        for edges in cache.values():
            edges.sort(key=lambda e: (e.first_ts, e.src, e.dst, e.operation))
        graph._incident_cache = cache
    return cache


def incident_edges(graph: ProvenanceGraph, uuid: str) -> list[ProvEdge]:
    """All edges touching ``uuid``, in deterministic temporal order."""
    return list(_incident_index(graph).get(uuid, []))


# --- serialization ---------------------------------------------------------

def graph_paths(directory: str | Path, name: str) -> dict[str, Path]:
    base = Path(directory)
    return {
        "header": base / f"{name}.header.json",
        "nodes": base / f"{name}.nodes.jsonl",
        "edges": base / f"{name}.edges.jsonl",
    }


def save_graph(graph: ProvenanceGraph, directory: str | Path) -> None:
    paths = graph_paths(directory, graph.name)
    write_json(paths["header"], {
        "name": graph.name,
        "window_start": graph.window_start,
        "window_end": graph.window_end,
        "node_count": len(graph.nodes),
        "edge_count": len(graph.edges),
    }, indent=2)
    write_jsonl(paths["nodes"],
                (vars(graph.nodes[uuid]) for uuid in sorted(graph.nodes)))
    write_jsonl(paths["edges"], map(vars, graph.edges))


def load_graph(directory: str | Path, name: str) -> ProvenanceGraph:
    paths = graph_paths(directory, name)
    header = read_json(paths["header"], keys(
        "edge_count name node_count window_end window_start"))
    nodes = {n.uuid: n for n in read_jsonl(paths["nodes"], record(Entity))}
    edges = list(read_jsonl(paths["edges"], record(ProvEdge)))
    return ProvenanceGraph(name=header["name"], nodes=nodes, edges=edges,
                           window_start=header["window_start"],
                           window_end=header["window_end"])


def iter_graph_names(directory: str | Path) -> Iterator[str]:
    base = Path(directory)
    if not base.is_dir():
        return
    for path in sorted(base.glob("*.header.json")):
        yield path.name[: -len(".header.json")]
