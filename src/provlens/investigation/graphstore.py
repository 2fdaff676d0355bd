"""Read-only access to the investigated provenance graph plus its node
embeddings for the agents. An investigation covers exactly one graph."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..encoder import EncoderParams, forward
from ..features import SemanticVocab, feature_matrix
from ..ingest import Entity, ProvenanceGraph, edge_order


@dataclass
class GraphStore:
    graph: ProvenanceGraph
    embeddings: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def build(cls, graphs, params: EncoderParams | None = None,
              vocab: SemanticVocab | None = None,
              op_vocab=None) -> "GraphStore":
        """The store of the one graph in ``graphs``, with its embeddings when
        ``params`` and ``vocab`` are given; another count raises ValueError."""
        if len(graphs) != 1:
            raise ValueError(f"an investigation covers one graph, "
                             f"got {len(graphs)}")
        store = cls(graph=graphs[0])
        if params is not None and vocab is not None:
            uuids, h0 = feature_matrix(store.graph, vocab, op_vocab)
            store.embeddings = dict(zip(uuids, forward(store.graph, h0, params)))
        return store

    def target(self, lead: dict) -> Entity | None:
        """The node ``lead`` names, or None when it names another graph or a
        uuid this graph does not hold."""
        if lead["graph_name"] != self.graph.name:
            return None
        return self.graph.nodes.get(lead["node_uuid"])

    def neighborhood(self, uuid: str, cap: int) -> list[dict]:
        """The node's 1-hop neighborhood: the ``cap`` incident edges ranked by
        weight then recency, presented in temporal order."""
        edges = sorted(self.graph.incidence[uuid],
                       key=lambda e: (-e.weight, -e.last_ts, e.src, e.dst,
                                      e.operation))
        selected = sorted(edges[:cap], key=edge_order)
        entries = []
        for edge in selected:
            if edge.src == uuid:
                other, direction = edge.dst, "out"
            else:
                other, direction = edge.src, "in"
            other_node = self.graph.nodes[other]
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
