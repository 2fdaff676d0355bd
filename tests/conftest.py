import json
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from provlens.config import DEFAULT_OP_VOCAB, PipelineConfig
from provlens.features import SemanticVocab, feature_matrix
from provlens.ingest import (EDGE_COLUMNS, Entity, ProvenanceGraph,
                             build_graph, parse_events)


@dataclass
class ProvEdge:
    """One edge as an object, the form the oracles walk."""
    src: str
    dst: str
    operation: str
    first_ts: int
    last_ts: int
    weight: int = 1


# A graph's edge order: first timestamp, source, destination, operation.
edge_order = attrgetter("first_ts", "src", "dst", "operation")


def edge_objects(graph):
    """The rows of ``graph.edge_columns`` as ``ProvEdge``s, in row order."""
    uuids, ops = list(graph.nodes), graph.operations
    return [ProvEdge(uuids[src], uuids[dst], ops[op], first, last, weight)
            for src, dst, op, first, last, weight
            in graph.edge_columns.tolist()]


def make_event(event_id="e1", subject_uuid="s1", object_uuid="o1",
               operation="READ", timestamp=0, subject_attrs=None,
               object_attrs=None, object_kind="file"):
    return {
        "event_id": event_id,
        "subject_uuid": subject_uuid,
        "object_uuid": object_uuid,
        "operation": operation,
        "timestamp": timestamp,
        "subject_attrs": subject_attrs if subject_attrs is not None else {"name": "proc"},
        "object_attrs": object_attrs if object_attrs is not None else {"path": "/tmp/f"},
        "object_kind": object_kind,
    }


def events_to_lines(events):
    return [json.dumps(e) for e in events]


def graph_from_events(events, window_ns=10_000_000_000, name="g"):
    parsed = parse_events(events_to_lines(events), DEFAULT_OP_VOCAB)
    return build_graph(parsed.events, window_ns, name=name)


def from_edges(name, nodes, edges):
    """The graph of the ``Entity`` map ``nodes`` and the ``ProvEdge``s
    ``edges`` given in any order; an edge endpoint that is not a node raises
    ValueError."""
    nodes = dict(sorted(nodes.items()))
    edges = sorted(edges, key=edge_order)
    dangling = {x for e in edges for x in (e.src, e.dst)} - nodes.keys()
    if dangling:
        raise ValueError(f"edge endpoint {min(dangling)!r} is not a node")
    operations = sorted({e.operation for e in edges})
    row = dict(zip(nodes, range(len(nodes))))
    op = dict(zip(operations, range(len(operations))))
    columns = np.array([(row[e.src], row[e.dst], op[e.operation],
                         e.first_ts, e.last_ts, e.weight) for e in edges],
                       dtype=np.int64).reshape(-1, len(EDGE_COLUMNS))
    return ProvenanceGraph(name, nodes, operations, columns)


def manual_graph(nodes, edges, name="g"):
    """Graph from raw (uuid, kind, attrs, identity) and edge tuples."""
    node_map = {}
    for uuid, kind, attrs, identity in nodes:
        node_map[uuid] = Entity(uuid=uuid, kind=kind, attrs=attrs,
                                identity=identity)
    edge_objs = [ProvEdge(src=s, dst=d, operation=op, first_ts=f, last_ts=l,
                          weight=w) for (s, d, op, f, l, w) in edges]
    return from_edges(name, node_map, edge_objs)


def shuffled_graph(graph, order):
    """``graph`` built again from its nodes and edges in the order the
    ``random.Random`` ``order`` shuffles them into."""
    nodes, edges = list(graph.nodes.values()), edge_objects(graph)
    order.shuffle(nodes)
    order.shuffle(edges)
    return from_edges(graph.name, {node.uuid: node for node in nodes}, edges)


# Graphs for the byte-level oracle tests. "net::none" and "MOUNT" are in no
# vocabulary and "EXEC" only in the token vocabulary. Small pools make
# self-loops, parallel edges, nodes without edges and equal stamps common.
# Numbers come from a seeded generator: half the stamps and weights reach
# 2**62 and 2**40, and token vectors span 2**-30 to 2**30, so that
# idle-period, squared-count and token-vector sums round in float64 and their
# result depends on the order of summation.
ORACLE_NODES = ("n0", "n1", "n2", "n3", "n4", "n5")
ORACLE_IDENTITIES = ("subject::a", "subject::b", "file::c", "net::none")
ORACLE_OPS = ("READ", "WRITE", "EXEC", "MOUNT")


@st.composite
def oracle_graphs(draw):
    """A graph, a token vocabulary and an operation vocabulary."""
    names = draw(st.lists(st.sampled_from(ORACLE_NODES), min_size=1,
                          unique=True))
    nodes = [(u, "subject", {}, draw(st.sampled_from(ORACLE_IDENTITIES)))
             for u in names]
    endpoint = st.sampled_from(names)
    ends = draw(st.lists(st.tuples(endpoint, endpoint,
                                   st.sampled_from(ORACLE_OPS)), max_size=40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    edges = []
    for src, dst, op in ends:
        first = int(rng.integers(rng.choice([40, 2 ** 62])))
        gap = int(rng.integers(rng.choice([1, 10, 2 ** 60])))
        weight = int(rng.integers(1, rng.choice([5, 2 ** 40])))
        edges.append((src, dst, op, first, first + gap, weight))
    tokens = draw(st.lists(st.sampled_from(ORACLE_IDENTITIES[:3]
                                           + ORACLE_OPS[:3]), unique=True))
    dim = draw(st.integers(1, 4))
    vectors = (rng.normal(size=(len(tokens), dim))
               * 2.0 ** rng.integers(-30, 30, size=(len(tokens), dim))
               ).astype(np.float32)
    vocab = SemanticVocab(tokens=tokens, vectors=vectors)
    op_vocab = tuple(draw(st.permutations(ORACLE_OPS[:2])))
    return manual_graph(nodes, edges), vocab, op_vocab


def oracle_case():
    """``oracle_graphs`` output with every case at once: a self-loop,
    parallel edges, an identity and operations outside the vocabularies, a
    node without edges (n5), one with one timestamp (n3), one with equal
    idle periods (n2) and one whose most recent edges, from n1 and n2, tie in
    weight and last timestamp in another order than their rows (n4)."""
    nodes = [(u, "subject", {}, identity) for u, identity in [
        ("n0", "subject::a"), ("n1", "subject::b"), ("n2", "file::c"),
        ("n3", "net::none"), ("n4", "subject::b"), ("n5", "subject::a")]]
    edges = [("n0", "n4", "READ", 5, 5, 1), ("n0", "n0", "WRITE", 7, 9, 2),
             ("n0", "n1", "READ", 1, 1, 1), ("n0", "n1", "READ", 1, 1, 1),
             ("n1", "n2", "MOUNT", 0, 0, 1), ("n2", "n4", "EXEC", 10, 20, 1),
             ("n3", "n4", "READ", 4, 4, 1), ("n1", "n4", "WRITE", 15, 20, 1)]
    tokens = ["subject::a", "file::c", "READ", "EXEC"]
    vocab = SemanticVocab(tokens=tokens, vectors=np.random.default_rng(3).normal(
        size=(len(tokens), 2)).astype(np.float32))
    return manual_graph(nodes, edges), vocab, ("WRITE", "READ")


# every token is out of vocabulary, so the semantic block is one zero
EMPTY_VOCAB = SemanticVocab(tokens=[], vectors=np.zeros((0, 1), np.float32))


def feature_blocks(graph, vocab, op_vocab, uuid="c"):
    """The semantic, action and temporal column blocks of ``uuid``'s row of
    ``feature_matrix``."""
    uuids, h0 = feature_matrix(graph, vocab, op_vocab)
    return np.split(h0[uuids.index(uuid)],
                    [vocab.dim, vocab.dim + len(op_vocab)])


def _sorted_object(pairs):
    keys = [key for key, _ in pairs]
    assert keys == sorted(keys), f"unsorted keys {keys}"
    return dict(pairs)


def assert_canonical_json_files(directory):
    """Every JSON and JSONL file under ``directory`` ends in a newline and
    writes the keys of every object in sorted order."""
    paths = sorted(Path(directory).rglob("*.json*"))
    assert paths
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n"), path
        documents = text.splitlines() if path.suffix == ".jsonl" else [text]
        for document in documents:
            json.loads(document, object_pairs_hook=_sorted_object)


@pytest.fixture
def config():
    return PipelineConfig()
