"""Reference implementations the ingest, encoder, feature, investigation and
detector tests check the production code against byte for byte: the graph
built by one walk over the sorted events, each node's incident edges and the
readers of them (token summary, edge digest and 1-hop neighborhood) as walks
over edge objects, the neighborhood operator built from per-node neighbor
sets, the node feature rows built by one walk over each node's incident edges,
and the detection rule applied to one node at a time."""

from operator import attrgetter
from typing import NamedTuple

import numpy as np
from scipy import sparse

from provlens.detector import SCORE_DELTA, Alert
from provlens.errors import ConfigError
from provlens.features import TEMPORAL_DIM
from provlens.ingest import Entity, EventColumns, derive_identity
from provlens.profiler import euclidean_distance

from conftest import ProvEdge, edge_objects, edge_order


class Event(NamedTuple):
    """One audit event, its fields in the order of ``EventColumns``."""
    event_id: str
    subject_uuid: str
    object_uuid: str
    operation: str
    timestamp: int
    subject_attrs: dict
    object_attrs: dict
    object_kind: str


def event_columns(events) -> EventColumns:
    """``events`` as the columns ``parse_events`` gives."""
    return EventColumns(*map(list, zip(*events)))


_event_order = attrgetter("timestamp", "subject_uuid", "object_uuid",
                          "operation", "event_id")


def build_graph(events, window_ns):
    """The nodes in uuid order, the sorted operations and the edge rows in
    edge order of the graph of ``events``: taken in timestamp order, a node
    is made from the first event naming it, and an event joins the open edge
    of its (src, dst, operation) key while it is within ``window_ns`` of that
    edge's first timestamp, else it opens a new one."""
    nodes, open_edges, edges = {}, {}, []
    for event in sorted(events, key=_event_order):
        src, dst = event.subject_uuid, event.object_uuid
        for uuid, kind, attrs in (
                (src, "subject", event.subject_attrs),
                (dst, event.object_kind, event.object_attrs)):
            if uuid not in nodes:
                nodes[uuid] = Entity(uuid, kind, dict(attrs),
                                     derive_identity(kind, attrs))
        key = (src, dst, event.operation)
        edge = open_edges.get(key)
        if edge is not None and event.timestamp - edge.first_ts <= window_ns:
            edge.weight += 1
            edge.last_ts = event.timestamp
        else:
            edge = ProvEdge(src, dst, event.operation, event.timestamp,
                            event.timestamp)
            open_edges[key] = edge
            edges.append(edge)
    nodes = dict(sorted(nodes.items()))
    operations = sorted({edge.operation for edge in edges})
    row = {uuid: i for i, uuid in enumerate(nodes)}
    rows = [[row[e.src], row[e.dst], operations.index(e.operation),
             e.first_ts, e.last_ts, e.weight]
            for e in sorted(edges, key=edge_order)]
    return nodes, operations, rows


def incidence(graph):
    """uuid -> the edges touching it, in edge order, for every node."""
    index = {uuid: [] for uuid in graph.nodes}
    for edge in edge_objects(graph):
        index[edge.src].append(edge)
        if edge.dst != edge.src:
            index[edge.dst].append(edge)
    return {uuid: tuple(edges) for uuid, edges in index.items()}


def build_node_summary(node, graph):
    """Identity label, then incident operations in temporal order."""
    return [node.identity] + [e.operation for e in incidence(graph)[node.uuid]]


def edge_digest(graph, uuid, limit):
    """Readable one-line summaries of a node's first ``limit`` incident
    edges, in temporal order."""
    lines = []
    for edge in incidence(graph)[uuid][:limit]:
        if edge.src == uuid:
            other, arrow = edge.dst, "->"
        else:
            other, arrow = edge.src, "<-"
        lines.append(f"{arrow} {edge.operation} {graph.nodes[other].identity} "
                     f"w={edge.weight} t=[{edge.first_ts}..{edge.last_ts}]")
    return lines


def neighborhood(graph, uuid, cap):
    """The ``cap`` incident edges ranked by weight, then recency, then (src,
    dst, operation), presented in edge order; edges equal in edge order keep
    their order in the graph."""
    edges = list(enumerate(incidence(graph)[uuid]))
    ranked = sorted(edges, key=lambda p: (-p[1].weight, -p[1].last_ts,
                                          p[1].src, p[1].dst, p[1].operation))
    entries = []
    for _, edge in sorted(ranked[:cap], key=lambda p: (edge_order(p[1]), p[0])):
        if edge.src == uuid:
            other, direction = edge.dst, "out"
        else:
            other, direction = edge.src, "in"
        other_node = graph.nodes[other]
        entries.append({
            "node_uuid": other,
            "identity": other_node.identity,
            "kind": other_node.kind,
            "operation": edge.operation,
            "direction": direction,
            "weight": edge.weight,
            "first_ts": edge.first_ts,
            "last_ts": edge.last_ts,
        })
    return entries


def propagation_matrix(graph):
    """Row i averages the undirected 1-hop neighbor set of the i-th node in
    uuid order plus the node itself. Parallel edges count once."""
    uuids = sorted(graph.nodes)
    pos = {u: i for i, u in enumerate(uuids)}
    neighbor_sets = [{i} for i in range(len(uuids))]
    for edge in edge_objects(graph):
        i, j = pos[edge.src], pos[edge.dst]
        neighbor_sets[i].add(j)
        neighbor_sets[j].add(i)
    rows, cols, vals = [], [], []
    for i, nbrs in enumerate(neighbor_sets):
        ordered = sorted(nbrs)
        value = 1.0 / len(ordered)
        for j in ordered:
            rows.append(i)
            cols.append(j)
            vals.append(value)
    n = len(uuids)
    return sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))


def feature_matrix(graph, vocab, op_vocab):
    """h0 rows in sorted-uuid order: per node, the running sum of its token
    vectors (identity, then incident operations) over the token count, the
    L2-normalised operation histogram, and the min-max-normalised idle-period
    (min, max, mean)."""
    uuids = sorted(graph.nodes)
    positions = {op: i for i, op in enumerate(op_vocab)}
    act_end = vocab.dim + len(op_vocab)
    h0 = np.zeros((len(uuids), act_end + TEMPORAL_DIM))
    incident = incidence(graph)
    for row, uuid in enumerate(uuids):
        tokens = [graph.nodes[uuid].identity]
        counts = np.zeros(len(op_vocab))
        stamps = []
        for edge in incident[uuid]:
            tokens.append(edge.operation)
            i = positions.get(edge.operation)
            if i is not None:
                counts[i] += edge.weight
            stamps.append(edge.first_ts)
            if edge.last_ts != edge.first_ts:
                stamps.append(edge.last_ts)

        semantic = h0[row, :vocab.dim]
        for token in tokens:
            i = vocab.index.get(token)
            semantic += (np.zeros(vocab.dim) if i is None
                         else vocab.vectors[i].astype(np.float64))
        semantic /= len(tokens)
        norm = np.linalg.norm(counts)
        h0[row, vocab.dim:act_end] = counts / norm if norm != 0.0 else counts
        if len(stamps) < 2:
            continue
        stamps.sort()
        idle = np.diff(np.asarray(stamps, dtype=np.float64))
        stats = np.array([idle.min(), idle.max(), idle.mean()])
        span = stats.max() - stats.min()
        if span != 0.0:
            h0[row, act_end:] = (stats - stats.min()) / span
    return uuids, h0


def nearest_prototype(z, profiles):
    """Identity whose centroid is closest to ``z``; ties go to the
    lexicographically smallest label."""
    if not profiles:
        raise ConfigError("nearest_prototype requires at least one profile")
    labels = sorted(profiles)
    distances = euclidean_distance(
        np.array([profiles[label].centroid for label in labels]), z)
    best = int(np.argmin(distances))
    return labels[best], float(distances[best])


def detect_node(z, claimed, profiles, node_uuid="", graph_name=""):
    """Apply both violation criteria to one embedded node.

    Returns None for benign nodes. Identities never seen in benign data always
    alert (unknown_identity); the investigation stage adjudicates those.
    """
    matched, matched_dist = nearest_prototype(z, profiles)
    profile = profiles.get(claimed)
    if profile is None:
        return Alert(
            node_uuid=node_uuid, graph_name=graph_name, claimed=claimed,
            matched=matched, deviation=matched_dist, radius=None,
            violation="unknown_identity",
            explanation=(f"declared {claimed} has no benign profile; "
                         f"behaves like {matched}, d={matched_dist:.6g}"),
            score=1.0 + matched_dist)
    deviation = euclidean_distance(z, profile.centroid)
    outside = deviation > profile.radius
    mismatched = matched != claimed
    if not outside and not mismatched:
        return None
    if outside and mismatched:
        violation = "both"
    elif outside:
        violation = "deviation"
    else:
        violation = "mismatch"
    score = max(0.0, deviation - profile.radius) / (profile.radius + SCORE_DELTA)
    if mismatched:
        score += 1.0
    return Alert(
        node_uuid=node_uuid, graph_name=graph_name, claimed=claimed,
        matched=matched, deviation=deviation, radius=profile.radius,
        violation=violation,
        explanation=(f"declared {claimed} behaves like {matched}, "
                     f"d={deviation:.6g}, R={profile.radius:.6g}"),
        score=score)
