"""Read-only access to provenance graphs plus node embeddings for the agents."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..encoder import EncoderParams, forward
from ..features import SemanticVocab, feature_matrix
from ..ingest import Entity, ProvenanceGraph, incident_edges
from ..profiler import edge_digest


@dataclass
class GraphStore:
    graphs: dict[str, ProvenanceGraph]
    embeddings: dict[str, dict[str, np.ndarray]] = field(default_factory=dict)

    @classmethod
    def build(cls, graphs, params: EncoderParams | None = None,
              vocab: SemanticVocab | None = None,
              op_vocab=None) -> "GraphStore":
        store = cls(graphs={g.name: g for g in graphs})
        if params is not None and vocab is not None:
            for graph in graphs:
                uuids, h0 = feature_matrix(graph, vocab, op_vocab)
                store.embeddings[graph.name] = dict(
                    zip(uuids, forward(graph, uuids, h0, params)))
        return store

    def get_node(self, graph_name: str, uuid: str) -> Entity | None:
        graph = self.graphs.get(graph_name)
        if graph is None:
            return None
        return graph.nodes.get(uuid)

    def embedding(self, graph_name: str, uuid: str) -> np.ndarray | None:
        return self.embeddings.get(graph_name, {}).get(uuid)

    def node_digest(self, graph_name: str, uuid: str, limit: int) -> list[str]:
        graph = self.graphs.get(graph_name)
        if graph is None:
            return []
        return edge_digest(graph, uuid, limit)

    def neighborhood(self, graph_name: str, uuid: str,
                     cap: int) -> list[dict]:
        """The node's 1-hop neighborhood: the ``cap`` incident edges ranked by
        weight then recency, presented in temporal order."""
        graph = self.graphs.get(graph_name)
        if graph is None:
            return []
        edges = incident_edges(graph, uuid)
        edges.sort(key=lambda e: (-e.weight, -e.last_ts, e.src, e.dst,
                                  e.operation))
        selected = sorted(edges[:cap],
                          key=lambda e: (e.first_ts, e.src, e.dst, e.operation))
        entries = []
        for edge in selected:
            if edge.src == uuid:
                other, direction = edge.dst, "out"
            else:
                other, direction = edge.src, "in"
            other_node = graph.nodes.get(other)
            entries.append({
                "node_uuid": other,
                "identity": other_node.identity if other_node else other,
                "kind": other_node.kind if other_node else "unknown",
                "operation": edge.operation,
                "direction": direction,
                "weight": edge.weight,
                "first_ts": edge.first_ts,
                "last_ts": edge.last_ts,
            })
        return entries
