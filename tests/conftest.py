import json
from pathlib import Path

import numpy as np
import pytest

from provlens.config import DEFAULT_OP_VOCAB, PipelineConfig
from provlens.features import SemanticVocab, feature_matrix
from provlens.ingest import Entity, ProvEdge, ProvenanceGraph, build_graph, parse_events


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


def manual_graph(nodes, edges, name="g"):
    """Graph from raw (uuid, kind, attrs, identity) and edge tuples."""
    node_map = {}
    for uuid, kind, attrs, identity in nodes:
        node_map[uuid] = Entity(uuid=uuid, kind=kind, attrs=attrs,
                                identity=identity)
    edge_objs = [ProvEdge(src=s, dst=d, operation=op, first_ts=f, last_ts=l,
                          weight=w) for (s, d, op, f, l, w) in edges]
    stamps = [t for e in edge_objs for t in (e.first_ts, e.last_ts)]
    return ProvenanceGraph(name=name, nodes=node_map, edges=edge_objs,
                           window_start=min(stamps) if stamps else 0,
                           window_end=max(stamps) if stamps else 0)


# every token is out of vocabulary, so the semantic block is one zero
EMPTY_VOCAB = SemanticVocab(tokens=[], vectors=np.zeros((0, 1), np.float32),
                            dim=1, window=1, negatives=1, epochs=0, seed=0)


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
